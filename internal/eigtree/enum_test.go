package eigtree

import (
	"testing"
	"testing/quick"
)

func mustEnum(t *testing.T, n, source int, repeat bool, maxLevel int) *Enum {
	t.Helper()
	e, err := NewEnum(n, source, repeat, maxLevel)
	if err != nil {
		t.Fatalf("NewEnum(%d, %d, %v, %d): %v", n, source, repeat, maxLevel, err)
	}
	return e
}

func TestNewEnumValidation(t *testing.T) {
	cases := []struct {
		name     string
		n, src   int
		repeat   bool
		maxLevel int
	}{
		{"n too small", 1, 0, false, 1},
		{"n too large", 300, 0, false, 1},
		{"source negative", 7, -1, false, 1},
		{"source too large", 7, 7, false, 1},
		{"negative level", 7, 0, false, -1},
		{"level beyond norepeat height", 5, 0, false, 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewEnum(tc.n, tc.src, tc.repeat, tc.maxLevel); err == nil {
				t.Fatalf("NewEnum(%d, %d, %v, %d) succeeded, want error", tc.n, tc.src, tc.repeat, tc.maxLevel)
			}
		})
	}
}

func TestNewEnumTooLarge(t *testing.T) {
	if _, err := NewEnum(50, 0, false, 8); err == nil {
		t.Fatal("expected node-budget error for n=50, maxLevel=8")
	}
}

func TestEnumLevelSizesNoRepeat(t *testing.T) {
	// Level h of the tree without repetitions has (n-1)(n-2)...(n-h) nodes
	// (paper Section 3: the root's children are the n-1 non-source names,
	// and each node at level h has n-1-h children).
	for _, n := range []int{4, 7, 10} {
		e := mustEnum(t, n, 0, false, 3)
		want := 1
		for h := 0; h <= 3; h++ {
			if got := e.Size(h); got != want {
				t.Errorf("n=%d: Size(%d) = %d, want %d", n, h, got, want)
			}
			want *= n - 1 - h
		}
	}
}

func TestEnumLevelSizesRepeat(t *testing.T) {
	// With repetitions every node has exactly n children.
	e := mustEnum(t, 6, 2, true, 2)
	for h, want := range []int{1, 6, 36} {
		if got := e.Size(h); got != want {
			t.Errorf("Size(%d) = %d, want %d", h, got, want)
		}
	}
}

func TestEnumRootSequence(t *testing.T) {
	e := mustEnum(t, 5, 3, false, 1)
	root := e.Level(0)[0]
	if len(root) != 1 || int(root[0]) != 3 {
		t.Fatalf("root sequence = %v, want [3]", root.Labels())
	}
}

func TestEnumNoRepetitionProperty(t *testing.T) {
	// No label appears twice on any path, and the source never appears
	// below the root.
	e := mustEnum(t, 7, 2, false, 3)
	for h := 0; h <= 3; h++ {
		for _, seq := range e.Level(h) {
			seen := make(map[byte]bool)
			for i := 0; i < len(seq); i++ {
				if seen[seq[i]] {
					t.Fatalf("level %d: sequence %v repeats label %d", h, seq.Labels(), seq[i])
				}
				seen[seq[i]] = true
				if i > 0 && int(seq[i]) == 2 {
					t.Fatalf("level %d: sequence %v has source below root", h, seq.Labels())
				}
			}
		}
	}
}

func TestEnumSequencesUniqueAndSorted(t *testing.T) {
	for _, repeat := range []bool{false, true} {
		e := mustEnum(t, 6, 0, repeat, 2)
		for h := 0; h <= 2; h++ {
			lvl := e.Level(h)
			for i := 1; i < len(lvl); i++ {
				if lvl[i-1] >= lvl[i] {
					t.Fatalf("repeat=%v level %d: sequences not strictly increasing at %d: %q ≥ %q",
						repeat, h, i, lvl[i-1], lvl[i])
				}
			}
		}
	}
}

// enumMatrix returns the enumerations the structural tests sweep: n in
// {4, 7, 13}, with and without repetitions, each as deep as stays small
// (full height for n=4 and n=7 without repetitions).
func enumMatrix(t *testing.T) []*Enum {
	t.Helper()
	var out []*Enum
	for _, c := range []struct {
		n, source int
		repeat    bool
		maxLevel  int
	}{
		{4, 0, false, 3}, {4, 2, true, 4},
		{7, 3, false, 6}, {7, 0, true, 3},
		{13, 5, false, 4}, {13, 12, true, 3},
	} {
		out = append(out, mustEnum(t, c.n, c.source, c.repeat, c.maxLevel))
	}
	return out
}

func TestEnumChildrenContiguous(t *testing.T) {
	// The children of node i at level h occupy [i*c, (i+1)*c) of level h+1,
	// in ascending label order, and are exactly the labels the tree allows
	// under the node: every processor with repetitions; without them,
	// every processor that is neither the source nor on the path.
	for _, e := range enumMatrix(t) {
		for h := 0; h < e.MaxLevel(); h++ {
			cc := e.ChildCount(h)
			for i, seq := range e.Level(h) {
				var allowed []int
				for p := 0; p < e.N(); p++ {
					if e.Repeat() || (p != e.Source() && !seq.contains(p)) {
						allowed = append(allowed, p)
					}
				}
				if len(allowed) != cc {
					t.Fatalf("n=%d repeat=%v level %d: node %q allows %d labels, ChildCount says %d",
						e.N(), e.Repeat(), h, seq, len(allowed), cc)
				}
				for k := 0; k < cc; k++ {
					child := e.Level(h + 1)[i*cc+k]
					if string(child[:len(child)-1]) != string(seq) {
						t.Fatalf("n=%d repeat=%v: child %q of %q has wrong prefix", e.N(), e.Repeat(), child, seq)
					}
					if got := int(child[len(child)-1]); got != allowed[k] {
						t.Fatalf("n=%d repeat=%v level %d: child %d of node %d has label %d, want %d",
							e.N(), e.Repeat(), h, k, i, got, allowed[k])
					}
					if got := e.ChildLabel(h, i, k); got != allowed[k] {
						t.Fatalf("n=%d repeat=%v level %d: ChildLabel(%d, %d) = %d, want %d",
							e.N(), e.Repeat(), h, i, k, got, allowed[k])
					}
				}
			}
		}
	}
}

func TestChildIndexRoundTrip(t *testing.T) {
	// ChildIndex(h, i, ChildLabel(h, i, k)) == i*cc+k for every node/child.
	for _, e := range enumMatrix(t) {
		for h := 0; h < e.MaxLevel(); h++ {
			cc := e.ChildCount(h)
			for i := 0; i < e.Size(h); i++ {
				for k := 0; k < cc; k++ {
					label := e.ChildLabel(h, i, k)
					idx, ok := e.ChildIndex(h, i, label)
					if !ok {
						t.Fatalf("n=%d repeat=%v: ChildIndex rejects label %d of node %d", e.N(), e.Repeat(), label, i)
					}
					if idx != i*cc+k {
						t.Fatalf("n=%d repeat=%v: ChildIndex(%d,%d,%d) = %d, want %d", e.N(), e.Repeat(), h, i, label, idx, i*cc+k)
					}
					if got := e.ParentIndex(h+1, idx); got != i {
						t.Fatalf("n=%d repeat=%v: ParentIndex(%d,%d) = %d, want %d", e.N(), e.Repeat(), h+1, idx, got, i)
					}
				}
			}
		}
	}
}

func TestChildIndexRejectsIllegalLabels(t *testing.T) {
	e := mustEnum(t, 6, 2, false, 2)
	// The source is never a child.
	if _, ok := e.ChildIndex(0, 0, 2); ok {
		t.Error("ChildIndex allowed the source as a child of the root")
	}
	// A label already on the path is never a child.
	for i := 0; i < e.Size(1); i++ {
		last := e.LastLabel(1, i)
		if _, ok := e.ChildIndex(1, i, last); ok {
			t.Errorf("ChildIndex allowed repeated label %d under node %d", last, i)
		}
	}
}

func TestChildIndexRepeatAllowsEverything(t *testing.T) {
	e := mustEnum(t, 5, 0, true, 2)
	for p := 0; p < 5; p++ {
		if _, ok := e.ChildIndex(0, 0, p); !ok {
			t.Errorf("repeat tree: ChildIndex rejected label %d", p)
		}
	}
}

func TestLastLabel(t *testing.T) {
	e := mustEnum(t, 5, 0, false, 2)
	if got := e.LastLabel(0, 0); got != 0 {
		t.Errorf("root LastLabel = %d, want 0 (the source)", got)
	}
	for i, seq := range e.Level(2) {
		if got := e.LastLabel(2, i); got != int(seq[len(seq)-1]) {
			t.Errorf("LastLabel(2, %d) = %d, want %d", i, got, seq[len(seq)-1])
		}
	}
}

func TestEnumAccessors(t *testing.T) {
	e := mustEnum(t, 9, 4, true, 2)
	if e.N() != 9 || e.Source() != 4 || !e.Repeat() || e.MaxLevel() != 2 {
		t.Fatalf("accessors: N=%d Source=%d Repeat=%v MaxLevel=%d", e.N(), e.Source(), e.Repeat(), e.MaxLevel())
	}
}

// TestChildIndexRankProperty cross-checks ChildIndex's closed-form rank
// computation against a brute-force scan, over random (n, source, node).
func TestChildIndexRankProperty(t *testing.T) {
	f := func(nRaw, srcRaw, idxRaw, labelRaw uint8) bool {
		n := 4 + int(nRaw)%8 // 4..11
		src := int(srcRaw) % n
		e, err := NewEnum(n, src, false, 2)
		if err != nil {
			return false
		}
		h := 1
		idx := int(idxRaw) % e.Size(h)
		p := int(labelRaw) % n
		got, ok := e.ChildIndex(h, idx, p)
		// Brute force: scan the level for the sequence seq+p.
		seq := e.Level(h)[idx]
		var want int
		var found bool
		for j, cand := range e.Level(h + 1) {
			if cand == seq+Seq([]byte{byte(p)}) {
				want, found = j, true
				break
			}
		}
		if ok != found {
			return false
		}
		return !ok || got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSeqLabels(t *testing.T) {
	s := Seq([]byte{3, 1, 4})
	labels := s.Labels()
	if len(labels) != 3 || labels[0] != 3 || labels[1] != 1 || labels[2] != 4 {
		t.Fatalf("Labels() = %v, want [3 1 4]", labels)
	}
}
