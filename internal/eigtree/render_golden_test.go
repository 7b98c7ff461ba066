package eigtree

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// goldenRenders draws a fixed set of fully grown trees — with and without
// repetitions, with values, truncation and custom names — into one text.
// Every child line's label comes from Enum.ChildLabel, so the golden file
// pins the label enumeration end to end.
func goldenRenders(t *testing.T) string {
	t.Helper()
	cases := []struct {
		n, source int
		repeat    bool
		levels    int
		opts      RenderOptions
	}{
		{4, 0, false, 3, RenderOptions{ShowValues: true}},
		{5, 2, false, 3, RenderOptions{}},
		{4, 1, true, 2, RenderOptions{ShowValues: true}},
		{7, 3, false, 2, RenderOptions{ShowValues: true, MaxChildren: 2}},
		{5, 4, true, 2, RenderOptions{Name: func(id int) string { return string(rune('a' + id)) }, MaxChildren: 3}},
	}
	var b strings.Builder
	for _, tc := range cases {
		tr := buildTree(t, tc.n, tc.source, tc.repeat, tc.levels)
		tr.SetRoot(Value(tc.source % 2))
		for h := 1; h <= tc.levels; h++ {
			mustAdd(t, tr)
			vals := tr.LevelValues(h)
			for i := range vals {
				vals[i] = Value((h*7 + i*3) % 4)
			}
		}
		fmt.Fprintf(&b, "== n=%d source=%d repeat=%v levels=%d maxChildren=%d values=%v\n",
			tc.n, tc.source, tc.repeat, tc.levels, tc.opts.MaxChildren, tc.opts.ShowValues)
		b.WriteString(tr.Render(tc.opts))
	}
	return b.String()
}

// TestRenderGolden checks Render byte-for-byte against testdata/render.golden.
// Regenerate with `go test ./internal/eigtree -run TestRenderGolden -update`
// only when a rendering change is intended.
func TestRenderGolden(t *testing.T) {
	path := filepath.Join("testdata", "render.golden")
	got := goldenRenders(t)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("Render output differs from %s:\n%s", path, got)
	}
}
