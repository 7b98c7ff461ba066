package faults

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"shiftgears/internal/eigtree"
)

// twoLevel builds a two-level no-repetition tree over n processors with
// source 0 and the given child values (length n-1, in ascending label
// order 1..n-1).
func twoLevel(t *testing.T, n int, children []eigtree.Value) *eigtree.Tree {
	t.Helper()
	e, err := eigtree.NewEnum(n, 0, false, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr := eigtree.NewTree(e)
	tr.SetRoot(1)
	if _, err := tr.AddLevel(); err != nil {
		t.Fatal(err)
	}
	copy(tr.LevelValues(1), children)
	return tr
}

func TestDiscoverStoredNoMajorityAccusesParent(t *testing.T) {
	// Root's children split 3/3: no majority → the root's processor (the
	// source) is accused by clause 1.
	tr := twoLevel(t, 7, []eigtree.Value{1, 1, 1, 0, 0, 0})
	l := NewList(7)
	newly, stats := DiscoverStored(tr, l, 2, 2)
	if len(newly) != 1 || newly[0] != 0 {
		t.Fatalf("accused %v, want [0] (the source)", newly)
	}
	if !l.Contains(0) {
		t.Fatal("source not added to list")
	}
	if r, _ := l.DiscoveryRound(0); r != 2 {
		t.Fatalf("discovery round = %d, want 2", r)
	}
	if stats.NodesChecked != 1 || stats.ChildReads != 6 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestDiscoverStoredDissentThreshold(t *testing.T) {
	// n=10, t=3, root has 9 children. Majority value exists; the rule
	// accuses only when MORE than t−|L| non-L children dissent.
	for _, tc := range []struct {
		dissenters int
		want       bool
	}{
		{3, false}, // exactly t: allowed (up to t faulty children may lie)
		{4, true},  // t+1: impossible for a correct parent
	} {
		children := make([]eigtree.Value, 9)
		for i := range children {
			if i < tc.dissenters {
				children[i] = 1
			}
		}
		tr := twoLevel(t, 10, children)
		l := NewList(10)
		newly, _ := DiscoverStored(tr, l, 3, 2)
		if got := len(newly) == 1; got != tc.want {
			t.Errorf("%d dissenters: accused=%v, want %v", tc.dissenters, newly, tc.want)
		}
	}
}

func TestDiscoverStoredBudgetShrinksWithList(t *testing.T) {
	// With one processor already in L, budget is t−1: 3 dissenters now
	// trigger (3 > 3−1) even though they didn't with an empty list.
	children := make([]eigtree.Value, 9)
	children[0], children[1], children[2] = 1, 1, 1
	tr := twoLevel(t, 10, children)
	l := NewList(10)
	l.Add(9, 1) // 9's child (value 0) now agrees with the majority anyway
	newly, _ := DiscoverStored(tr, l, 3, 2)
	if len(newly) != 1 || newly[0] != 0 {
		t.Fatalf("accused %v, want the source", newly)
	}
}

func TestDiscoverStoredListedDissentersDoNotCount(t *testing.T) {
	// Dissenting children corresponding to processors already in L are
	// excluded from the dissent count.
	children := make([]eigtree.Value, 9)
	children[0], children[1], children[2], children[3] = 1, 1, 1, 1 // labels 1..4 dissent
	tr := twoLevel(t, 10, children)
	l := NewList(10)
	l.Add(1, 1) // label 1's dissent no longer counts: 3 dissenters ≤ t−|L|=2? 3 > 2 → still accused
	newly, _ := DiscoverStored(tr, l, 3, 2)
	if len(newly) != 1 || newly[0] != 0 {
		t.Fatalf("accused %v, want [0]", newly)
	}
	// With t=4 and all four dissenters listed: budget t−|L| = 0 and zero
	// unlisted dissent → no accusation (the growing list absorbs exactly
	// the dissent it explains).
	l2 := NewList(10)
	l2.Add(1, 1)
	l2.Add(2, 1)
	l2.Add(3, 1)
	l2.Add(4, 1)
	newly2, _ := DiscoverStored(tr, l2, 4, 2)
	if len(newly2) != 0 {
		t.Fatalf("accused %v with all dissenters listed, want none", newly2)
	}
}

func TestDiscoverStoredSkipsAlreadyListedParent(t *testing.T) {
	tr := twoLevel(t, 7, []eigtree.Value{1, 1, 1, 0, 0, 0})
	l := NewList(7)
	l.Add(0, 1)
	newly, _ := DiscoverStored(tr, l, 2, 2)
	if len(newly) != 0 {
		t.Fatalf("re-accused a listed processor: %v", newly)
	}
}

func TestDiscoverStoredDeeperLevelAccusesLastLabel(t *testing.T) {
	// Three-level tree, n=7, t=2. Make node s·3's children split so that
	// processor 3 is accused; all other parents unanimous.
	e, err := eigtree.NewEnum(7, 0, false, 2)
	if err != nil {
		t.Fatal(err)
	}
	tr := eigtree.NewTree(e)
	tr.SetRoot(1)
	if _, err := tr.AddLevel(); err != nil {
		t.Fatal(err)
	}
	for i := range tr.LevelValues(1) {
		tr.LevelValues(1)[i] = 1
	}
	if _, err := tr.AddLevel(); err != nil {
		t.Fatal(err)
	}
	lvl2 := tr.LevelValues(2)
	for i := range lvl2 {
		lvl2[i] = 1
	}
	cc := e.ChildCount(1)
	for i := 0; i < e.Size(1); i++ {
		if e.LastLabel(1, i) == 3 {
			// Children split 2/2/1: no strict majority → clause 1 fires.
			vals := []eigtree.Value{0, 0, 1, 1, 2}
			for k := 0; k < cc; k++ {
				lvl2[i*cc+k] = vals[k]
			}
		}
	}
	l := NewList(7)
	newly, stats := DiscoverStored(tr, l, 2, 3)
	if len(newly) != 1 || newly[0] != 3 {
		t.Fatalf("accused %v, want [3]", newly)
	}
	if stats.NodesChecked != e.Size(1) {
		t.Fatalf("checked %d nodes, want %d", stats.NodesChecked, e.Size(1))
	}
}

func TestDiscoverStoredNoFalseAccusationOnUnanimity(t *testing.T) {
	tr := twoLevel(t, 7, []eigtree.Value{1, 1, 1, 1, 1, 1})
	l := NewList(7)
	if newly, _ := DiscoverStored(tr, l, 2, 2); len(newly) != 0 {
		t.Fatalf("accused %v on unanimous children", newly)
	}
}

func TestDiscoverStoredEmptyTree(t *testing.T) {
	e, _ := eigtree.NewEnum(5, 0, false, 1)
	tr := eigtree.NewTree(e)
	tr.SetRoot(1)
	if newly, _ := DiscoverStored(tr, NewList(5), 1, 1); newly != nil {
		t.Fatalf("accused %v on rootless/one-level tree", newly)
	}
}

func TestDiscoverStoredRepeatTreeIgnoresSourceSlot(t *testing.T) {
	// Algorithm C's tree: the source's child slot is permanently default
	// because the source halts after round 1; it must not count as dissent.
	// n=9, t=2: children of root = 9 slots; s-slot 0, two (faulty,
	// silent) slots 0, six slots 1. Dissent = 2 (not 3) ≤ t → no accusation.
	e, err := eigtree.NewEnum(9, 0, true, 2)
	if err != nil {
		t.Fatal(err)
	}
	tr := eigtree.NewTree(e)
	tr.SetRoot(1)
	if _, err := tr.AddLevel(); err != nil {
		t.Fatal(err)
	}
	lvl := tr.LevelValues(1)
	for i := range lvl {
		lvl[i] = 1
	}
	lvl[0], lvl[1], lvl[3] = 0, 0, 0 // source slot + two silent faults
	l := NewList(9)
	if newly, _ := DiscoverStored(tr, l, 2, 2); len(newly) != 0 {
		t.Fatalf("false accusation %v via the dead source slot", newly)
	}
	// A third real dissenter crosses the threshold.
	lvl[5] = 0
	if newly, _ := DiscoverStored(tr, l, 2, 2); len(newly) != 1 || newly[0] != 0 {
		t.Fatalf("accused %v, want [0]", newly)
	}
}

func TestDiscoverConvertedAccusesOnConvertedValues(t *testing.T) {
	// Algorithm A's conversion-time rule: level-1 node s·3 gets children
	// whose *converted* values split without majority → 3 accused.
	e, err := eigtree.NewEnum(7, 0, false, 2)
	if err != nil {
		t.Fatal(err)
	}
	tr := eigtree.NewTree(e)
	tr.SetRoot(1)
	_, _ = tr.AddLevel()
	_, _ = tr.AddLevel()
	lvl2 := tr.LevelValues(2)
	for i := range lvl2 {
		lvl2[i] = 1
	}
	cc := e.ChildCount(1)
	for i := 0; i < e.Size(1); i++ {
		if e.LastLabel(1, i) == 3 {
			// Leaves under s·3: {1,1,2,2,3}: nothing reaches t+1=3 → those
			// leaves convert to themselves; with no majority among them,
			// clause 1 fires at s·3.
			vals := []eigtree.Value{1, 1, 2, 2, 3}
			for k := 0; k < cc; k++ {
				lvl2[i*cc+k] = vals[k]
			}
		}
	}
	res, err := tr.Resolve(eigtree.ResolveSupport, 2)
	if err != nil {
		t.Fatal(err)
	}
	l := NewList(7)
	newly, stats := DiscoverConverted(res, l, 2, 4)
	if len(newly) != 1 || newly[0] != 3 {
		t.Fatalf("accused %v, want [3]", newly)
	}
	if stats.NodesChecked != 1+e.Size(1) {
		t.Fatalf("checked %d nodes, want root+level1 = %d", stats.NodesChecked, 1+e.Size(1))
	}
	if r, _ := l.DiscoveryRound(3); r != 4 {
		t.Fatalf("round = %d, want 4", r)
	}
}

func TestDiscoverConvertedCleanTreeNoAccusations(t *testing.T) {
	e, _ := eigtree.NewEnum(7, 0, false, 2)
	tr := eigtree.NewTree(e)
	tr.SetRoot(1)
	_, _ = tr.AddLevel()
	_, _ = tr.AddLevel()
	for i := range tr.LevelValues(2) {
		tr.LevelValues(2)[i] = 1
	}
	res, err := tr.Resolve(eigtree.ResolveSupport, 2)
	if err != nil {
		t.Fatal(err)
	}
	if newly, _ := DiscoverConverted(res, NewList(7), 2, 3); len(newly) != 0 {
		t.Fatalf("accused %v on a unanimous tree", newly)
	}
}

func TestDiscoverConvertedSingleLevel(t *testing.T) {
	e, _ := eigtree.NewEnum(7, 0, false, 1)
	tr := eigtree.NewTree(e)
	tr.SetRoot(1)
	res, err := tr.Resolve(eigtree.ResolveSupport, 2)
	if err != nil {
		t.Fatal(err)
	}
	if newly, _ := DiscoverConverted(res, NewList(7), 2, 2); newly != nil {
		t.Fatalf("accused %v on a root-only resolution", newly)
	}
}

func TestDiscoveryDeterministicOrder(t *testing.T) {
	// Two parents trigger in one pass: accusations come out sorted.
	e, _ := eigtree.NewEnum(8, 0, false, 2)
	tr := eigtree.NewTree(e)
	tr.SetRoot(1)
	_, _ = tr.AddLevel()
	_, _ = tr.AddLevel()
	lvl2 := tr.LevelValues(2)
	for i := range lvl2 {
		lvl2[i] = 1
	}
	cc := e.ChildCount(1)
	for i := 0; i < e.Size(1); i++ {
		last := e.LastLabel(1, i)
		if last == 5 || last == 2 {
			for k := 0; k < cc; k++ {
				lvl2[i*cc+k] = eigtree.Value(k % 3) // junk: no majority
			}
		}
	}
	newly, _ := DiscoverStored(tr, NewList(8), 2, 3)
	if len(newly) != 2 || newly[0] != 2 || newly[1] != 5 {
		t.Fatalf("accused %v, want [2 5]", newly)
	}
}

// refChildLabel derives a child's label without the enumeration's stored
// child sequences: the k-th allowed label under the node, in ascending
// order, skipping the source and the labels on the path when the tree has
// no repetitions.
func refChildLabel(e *eigtree.Enum, h, idx, k int) int {
	if e.Repeat() {
		return k
	}
	seq := string(e.Level(h)[idx])
	rank := 0
	for p := 0; p < e.N(); p++ {
		if p == e.Source() || strings.IndexByte(seq, byte(p)) >= 0 {
			continue
		}
		if rank == k {
			return p
		}
		rank++
	}
	return -1
}

// refDissent is the reference dissent count: every child's label is
// looked up, with no shortcut for children that agree with the majority.
func refDissent(e *eigtree.Enum, lst *List, h, j int, vals []eigtree.CValue, maj eigtree.CValue) int {
	dissent := 0
	for k := range vals {
		q := refChildLabel(e, h, j, k)
		if q == e.Source() {
			continue
		}
		if !lst.Contains(q) && vals[k] != maj {
			dissent++
		}
	}
	return dissent
}

// refDiscoverStored is the reference scan for DiscoverStored.
func refDiscoverStored(tr *eigtree.Tree, lst *List, t, round int) ([]int, PassStats) {
	var stats PassStats
	deepest := tr.Levels() - 1
	if deepest < 1 {
		return nil, stats
	}
	e := tr.Enum()
	parents := deepest - 1
	cc := e.ChildCount(parents)
	children := tr.LevelValues(deepest)
	budget := t - lst.Len()
	var accused []int
	for j := 0; j < e.Size(parents); j++ {
		r := e.LastLabel(parents, j)
		stats.NodesChecked++
		stats.ChildReads += cc
		if lst.Contains(r) || contains(accused, r) {
			continue
		}
		vals := make([]eigtree.CValue, cc)
		for k := range vals {
			vals[k] = eigtree.CV(children[j*cc+k])
		}
		maj, ok := majorityOf(vals, cc)
		if !ok || refDissent(e, lst, parents, j, vals, maj) > budget {
			accused = append(accused, r)
		}
	}
	accused = sortedUnique(accused)
	for _, p := range accused {
		lst.Add(p, round)
	}
	return accused, stats
}

// refDiscoverConverted is the reference scan for DiscoverConverted.
func refDiscoverConverted(res *eigtree.Resolution, lst *List, t, round int) ([]int, PassStats) {
	var stats PassStats
	if res.Levels() < 2 {
		return nil, stats
	}
	e := res.Enum()
	budget := t - lst.Len()
	var accused []int
	for h := 0; h < res.Levels()-1; h++ {
		cc := e.ChildCount(h)
		children := res.LevelValues(h + 1)
		for j := 0; j < e.Size(h); j++ {
			r := e.LastLabel(h, j)
			stats.NodesChecked++
			stats.ChildReads += cc
			if lst.Contains(r) || contains(accused, r) {
				continue
			}
			vals := children[j*cc : (j+1)*cc]
			maj, ok := majorityOf(vals, cc)
			if !ok || refDissent(e, lst, h, j, vals, maj) > budget {
				accused = append(accused, r)
			}
		}
	}
	accused = sortedUnique(accused)
	for _, p := range accused {
		lst.Add(p, round)
	}
	return accused, stats
}

// checkDiscoverMatchesReference grows a tree level by level from the given
// shape and value bytes, running DiscoverStored and its reference after
// each level on twin lists seeded with the same faults, then
// DiscoverConverted and its reference on the resolved tree. Accused sets,
// list rounds and PassStats must match at every step.
func checkDiscoverMatchesReference(t *testing.T, nRaw, srcRaw, levelsRaw, tRaw uint8, repeat, support bool, listed uint16, data []byte) {
	t.Helper()
	n := 4 + int(nRaw)%6 // 4..9
	src := int(srcRaw) % n
	maxLevel := 1 + int(levelsRaw)%3 // 1..3
	if !repeat && maxLevel > n-1 {
		maxLevel = n - 1
	}
	tparam := int(tRaw) % n
	e, err := eigtree.NewEnum(n, src, repeat, maxLevel)
	if err != nil {
		t.Fatal(err)
	}
	got, want := NewList(n), NewList(n)
	for p := 0; p < n; p++ {
		if listed&(1<<p) != 0 {
			got.Add(p, 1)
			want.Add(p, 1)
		}
	}
	// Values lean towards 1 so that majorities, and the dissent a majority
	// leaves, are common; the low bits of each byte pick a minority value.
	value := func(i int) eigtree.Value {
		if len(data) == 0 {
			return 1
		}
		b := data[i%len(data)] ^ byte(i/len(data))
		if b&3 != 0 {
			return 1
		}
		return eigtree.Value(b>>2) % 4
	}
	tr := eigtree.NewTree(e)
	tr.SetRoot(value(0))
	pos := 1
	for h := 1; h <= maxLevel; h++ {
		if _, err := tr.AddLevel(); err != nil {
			t.Fatal(err)
		}
		vals := tr.LevelValues(h)
		for i := range vals {
			vals[i] = value(pos)
			pos++
		}
		round := h + 1
		gotAcc, gotStats := DiscoverStored(tr, got, tparam, round)
		wantAcc, wantStats := refDiscoverStored(tr, want, tparam, round)
		if !reflect.DeepEqual(gotAcc, wantAcc) || gotStats != wantStats {
			t.Fatalf("n=%d src=%d repeat=%v t=%d level %d: DiscoverStored = %v %+v, reference %v %+v",
				n, src, repeat, tparam, h, gotAcc, gotStats, wantAcc, wantStats)
		}
	}
	kind := eigtree.ResolveMajority
	if support {
		kind = eigtree.ResolveSupport
	}
	res, err := tr.Resolve(kind, tparam)
	if err != nil {
		t.Fatal(err)
	}
	round := maxLevel + 2
	gotAcc, gotStats := DiscoverConverted(res, got, tparam, round)
	wantAcc, wantStats := refDiscoverConverted(res, want, tparam, round)
	if !reflect.DeepEqual(gotAcc, wantAcc) || gotStats != wantStats {
		t.Fatalf("n=%d src=%d repeat=%v t=%d %v: DiscoverConverted = %v %+v, reference %v %+v",
			n, src, repeat, tparam, kind, gotAcc, gotStats, wantAcc, wantStats)
	}
	if !reflect.DeepEqual(got.Log(), want.Log()) {
		t.Fatalf("n=%d src=%d repeat=%v t=%d: list log %v, reference %v", n, src, repeat, tparam, got.Log(), want.Log())
	}
}

// FuzzDiscoverMatchesReference: both discovery passes accuse exactly what
// the reference scan accuses, in the same rounds, with the same PassStats,
// on arbitrary trees (with and without repetitions), fault lists and t.
func FuzzDiscoverMatchesReference(f *testing.F) {
	f.Add(uint8(3), uint8(0), uint8(1), uint8(2), false, false, uint16(0), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint8(5), uint8(2), uint8(2), uint8(2), true, false, uint16(0b1010), []byte{0, 4, 8, 12, 1})
	f.Add(uint8(0), uint8(3), uint8(2), uint8(1), false, true, uint16(0b1), []byte{0, 0, 0, 4, 9, 12, 16})
	f.Add(uint8(1), uint8(1), uint8(0), uint8(3), true, true, uint16(0), []byte{4})
	f.Fuzz(func(t *testing.T, nRaw, srcRaw, levelsRaw, tRaw uint8, repeat, support bool, listed uint16, data []byte) {
		checkDiscoverMatchesReference(t, nRaw, srcRaw, levelsRaw, tRaw, repeat, support, listed, data)
	})
}

// TestDiscoverMatchesReference runs the fuzz property over a fixed sweep of
// seeded random inputs, so every plain `go test` exercises it.
func TestDiscoverMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 400; i++ {
		data := make([]byte, 1+rng.Intn(64))
		rng.Read(data)
		checkDiscoverMatchesReference(t, uint8(rng.Intn(256)), uint8(rng.Intn(256)), uint8(rng.Intn(256)), uint8(rng.Intn(4)),
			rng.Intn(2) == 0, rng.Intn(2) == 0, uint16(rng.Intn(1<<10))&uint16(rng.Intn(1<<10)), data)
	}
}
