package faults

import (
	"shiftgears/internal/eigtree"
)

// PassStats reports what a discovery pass did, for the local-computation
// accounting of the experiment harness.
type PassStats struct {
	// NodesChecked counts the internal nodes the rule was evaluated on.
	NodesChecked int
	// ChildReads counts child values examined (nodes × fan-out).
	ChildReads int
}

// DiscoverStored applies the Fault Discovery Rule (Section 3) to the tree
// after a new level has been stored: for every internal node αr whose
// children were just filled in, processor r (the node's last label) is
// accused when
//
//   - no value is stored at a strict majority of the children of αr, or
//   - a majority value exists, but values other than it are stored at more
//     than t−|L_p| children corresponding to processors not in L_p.
//
// L_p is snapshotted at the start of the pass. Newly accused processors are
// added to the list with the given round and returned in ascending order;
// the caller is responsible for masking their just-stored level entries
// (Tree.ZeroSender), per the ordering discussed in Section 3.
func DiscoverStored(tr *eigtree.Tree, lst *List, t, round int) ([]int, PassStats) {
	var stats PassStats
	deepest := tr.Levels() - 1
	if deepest < 1 {
		return nil, stats
	}
	enum := tr.Enum()
	parents := deepest - 1
	cc := enum.ChildCount(parents)
	children := tr.LevelValues(deepest)
	// Accusations are applied only after the scan (below), so the list's
	// membership and size are stable for the whole pass — the "snapshot"
	// the rule requires is the list itself, read directly.
	budget := t - lst.Len()

	var accused []int
	var valsBuf [64]eigtree.CValue
	vals := valsBuf[:]
	if cc > len(valsBuf) {
		vals = make([]eigtree.CValue, cc)
	}
	vals = vals[:cc]
	for j := 0; j < enum.Size(parents); j++ {
		r := enum.LastLabel(parents, j)
		stats.NodesChecked++
		stats.ChildReads += cc
		if lst.Contains(r) || contains(accused, r) {
			continue // already known or already accused this pass
		}
		for k := 0; k < cc; k++ {
			vals[k] = eigtree.CV(children[j*cc+k])
		}
		maj, ok := majorityOf(vals, cc)
		if !ok {
			accused = append(accused, r)
			continue
		}
		dissent := 0
		for k := 0; k < cc; k++ {
			// A child agreeing with the majority never dissents, so only
			// dissenting children need their label looked up.
			if vals[k] == maj {
				continue
			}
			q := enum.ChildLabel(parents, j, k)
			// Children labelled with the source exist only in Algorithm C's
			// tree with repetitions; the source halts after round 1, so
			// those slots are permanently the default and carry no evidence
			// about r — they do not count as dissent.
			if q != enum.Source() && !lst.Contains(q) {
				dissent++
			}
		}
		if dissent > budget {
			accused = append(accused, r)
		}
	}

	accused = sortedUnique(accused)
	for _, p := range accused {
		lst.Add(p, round)
	}
	return accused, stats
}

// DiscoverConverted applies Algorithm A's Fault Discovery Rule During
// Conversion (Section 4.2) to a completed resolution: for every internal
// node αr, processor r is accused when
//
//   - there is no majority value among the converted values of the children
//     of αr, or
//   - a majority value v exists, but more than t−|L_p| children not in L_p
//     have converted values other than v.
//
// The list is snapshotted at conversion start; accusations are added with
// the given round and take effect (masking) from the next round on — the
// converted tree itself is not rewritten, matching the paper's use of the
// rule purely to grow L_p for subsequent blocks.
func DiscoverConverted(res *eigtree.Resolution, lst *List, t, round int) ([]int, PassStats) {
	var stats PassStats
	levels := res.Levels()
	if levels < 2 {
		return nil, stats
	}
	enum := res.Enum()
	// As in DiscoverStored: adds happen after the scan, so the live list
	// is the pass snapshot.
	budget := t - lst.Len()

	var accused []int
	for h := 0; h < levels-1; h++ {
		cc := enum.ChildCount(h)
		children := res.LevelValues(h + 1)
		for j := 0; j < enum.Size(h); j++ {
			r := enum.LastLabel(h, j)
			stats.NodesChecked++
			stats.ChildReads += cc
			if lst.Contains(r) || contains(accused, r) {
				continue
			}
			vals := children[j*cc : (j+1)*cc]
			maj, ok := majorityOf(vals, cc)
			if !ok {
				accused = append(accused, r)
				continue
			}
			dissent := 0
			for k := 0; k < cc; k++ {
				if vals[k] == maj {
					continue // see DiscoverStored: agreement never dissents
				}
				q := enum.ChildLabel(h, j, k)
				// See DiscoverStored: dead source slots never dissent.
				if q != enum.Source() && !lst.Contains(q) {
					dissent++
				}
			}
			if dissent > budget {
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

func contains(ids []int, p int) bool {
	for _, id := range ids {
		if id == p {
			return true
		}
	}
	return false
}
