package eigtree

import (
	"errors"
	"fmt"
)

// maxEnumNodes bounds the total number of tree nodes an Enum will
// materialize. It protects callers from accidentally requesting an
// Information Gathering Tree too large to fit in memory (the tree of the
// Exponential Algorithm grows as O(n^t), paper Section 3).
const maxEnumNodes = 1 << 26

// ErrTooLarge is returned when an enumeration would exceed maxEnumNodes.
var ErrTooLarge = errors.New("eigtree: enumeration exceeds node budget")

// Seq is a node of the Information Gathering Tree, identified by the
// sequence of processor labels on the path from the root: the byte at
// position 0 is always the source, and each subsequent byte is a processor
// id. Using an immutable string keeps sequences usable as map keys and
// cheap to slice.
type Seq string

// Labels returns the processor ids in the sequence.
func (s Seq) Labels() []int {
	out := make([]int, len(s))
	for i := 0; i < len(s); i++ {
		out[i] = int(s[i])
	}
	return out
}

// contains reports whether label p occurs in the sequence.
func (s Seq) contains(p int) bool {
	for i := 0; i < len(s); i++ {
		if int(s[i]) == p {
			return true
		}
	}
	return false
}

// Enum is the canonical enumeration of the nodes of an Information
// Gathering Tree for n processors with a fixed source. Nodes at level h
// (sequences of length h+1) are listed in depth-first lexicographic order,
// which has two properties the protocols rely on:
//
//   - every processor computes the identical ordering, so a tree level can
//     be shipped as a bare array of values with no per-node labels; and
//   - the children of the node at index i of level h occupy the contiguous
//     index range [i*c, (i+1)*c) of level h+1, where c = ChildCount(h),
//     because every node at a level has the same number of children.
//
// With repeat=false the tree is "without repetitions" (paper Section 3): no
// label occurs twice on a root-to-leaf path and the source never occurs
// below the root, so a node at level h has n-1-h children. With repeat=true
// (Algorithm C, Section 4.3) every internal node has exactly n children,
// one per processor name.
//
// An Enum is immutable after construction and safe for concurrent use.
type Enum struct {
	n      int
	source int
	repeat bool
	levels [][]Seq
}

// NewEnum builds the enumeration of levels 0..maxLevel for an n-processor
// tree rooted at source. It returns ErrTooLarge if the total node count
// would exceed the package budget.
func NewEnum(n, source int, repeat bool, maxLevel int) (*Enum, error) {
	switch {
	case n < 2 || n > 255:
		return nil, fmt.Errorf("eigtree: n = %d out of range [2, 255]", n)
	case source < 0 || source >= n:
		return nil, fmt.Errorf("eigtree: source %d out of range [0, %d)", source, n)
	case maxLevel < 0:
		return nil, fmt.Errorf("eigtree: negative max level %d", maxLevel)
	case !repeat && maxLevel > n-1:
		return nil, fmt.Errorf("eigtree: max level %d exceeds tree height %d without repetitions", maxLevel, n-1)
	}

	total := 1
	size := 1
	for h := 0; h < maxLevel; h++ {
		c := n
		if !repeat {
			c = n - 1 - h
		}
		size *= c
		total += size
		if total > maxEnumNodes {
			return nil, fmt.Errorf("%w: n=%d maxLevel=%d", ErrTooLarge, n, maxLevel)
		}
	}

	e := &Enum{n: n, source: source, repeat: repeat}
	e.levels = make([][]Seq, maxLevel+1)
	e.levels[0] = []Seq{Seq([]byte{byte(source)})}
	for h := 0; h < maxLevel; h++ {
		cur := e.levels[h]
		next := make([]Seq, 0, len(cur)*e.ChildCount(h))
		for _, seq := range cur {
			for p := 0; p < n; p++ {
				if !repeat && (p == source || seq.contains(p)) {
					continue
				}
				next = append(next, seq+Seq([]byte{byte(p)}))
			}
		}
		e.levels[h+1] = next
	}
	return e, nil
}

// N returns the number of processors.
func (e *Enum) N() int { return e.n }

// Source returns the source processor id (the root label).
func (e *Enum) Source() int { return e.source }

// Repeat reports whether the tree allows repeated labels on a path.
func (e *Enum) Repeat() bool { return e.repeat }

// MaxLevel returns the deepest enumerated level.
func (e *Enum) MaxLevel() int { return len(e.levels) - 1 }

// TotalNodes returns the node count of a fully grown tree — the sum of
// every level's size. Tree uses it to size its value arena once.
func (e *Enum) TotalNodes() int {
	total := 0
	for _, lvl := range e.levels {
		total += len(lvl)
	}
	return total
}

// Size returns the number of nodes at level h.
func (e *Enum) Size(h int) int { return len(e.levels[h]) }

// Level returns the sequences at level h in canonical order. The returned
// slice is shared and must not be modified.
func (e *Enum) Level(h int) []Seq { return e.levels[h] }

// ChildCount returns the number of children of every node at level h.
func (e *Enum) ChildCount(h int) int {
	if e.repeat {
		return e.n
	}
	return e.n - 1 - h
}

// LastLabel returns the processor corresponding to the node at index idx of
// level h, i.e. the last label of its sequence.
func (e *Enum) LastLabel(h, idx int) int {
	seq := e.levels[h][idx]
	return int(seq[len(seq)-1])
}

// ChildLabel returns the label of the k-th child (0-based, in ascending
// label order) of the node at index idx of level h. It requires
// h < MaxLevel: the label is read from the child's stored sequence,
// which only enumerated levels have.
func (e *Enum) ChildLabel(h, idx, k int) int {
	return e.LastLabel(h+1, idx*e.ChildCount(h)+k)
}

// ChildIndex returns the index in level h+1 of the child of node idx
// (level h) labelled p, and whether such a child exists. In a tree without
// repetitions the child does not exist when p is the source or already on
// the path.
func (e *Enum) ChildIndex(h, idx, p int) (int, bool) {
	c := e.ChildCount(h)
	if e.repeat {
		return idx*c + p, true
	}
	seq := e.levels[h][idx]
	if p == e.source || seq.contains(p) {
		return 0, false
	}
	// Rank of p among allowed labels: ids below p, minus the source if it is
	// below p, minus path labels below p.
	rank := p
	if e.source < p {
		rank--
	}
	for i := 1; i < len(seq); i++ { // position 0 is the source, already counted
		if int(seq[i]) < p {
			rank--
		}
	}
	return idx*c + rank, true
}

// ParentIndex returns the index in level h-1 of the parent of node idx at
// level h (h ≥ 1).
func (e *Enum) ParentIndex(h, idx int) int {
	return idx / e.ChildCount(h-1)
}
