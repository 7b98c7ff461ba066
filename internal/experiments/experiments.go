// Package experiments regenerates every table and figure of the paper's
// evaluation, as indexed by All: the round/message/computation bounds
// of Theorems 1–4 and Proposition 1 (E1–E5), the Coan and PSL comparisons
// (E6, E7), the fault-detection dynamics behind the block-progress lemmas
// (E8), the Section 5 extension comparison (E9), an ablation of fault
// discovery/masking (E10), the interactive-consistency and large-domain
// extensions (E11, E12), and the paper's three figures (F1–F3).
//
// Each experiment produces a Table that renders to markdown;
// cmd/experiments prints them.
package experiments

import (
	"fmt"
	"sort"
	"strings"
)

// Table is one experiment's result: a captioned grid plus free-form notes.
type Table struct {
	ID         string
	Title      string
	PaperClaim string
	Headers    []string
	Rows       [][]string
	Notes      []string
	// Text holds preformatted content (used by the figure "tables").
	Text string
}

// Markdown renders the table.
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", t.ID, t.Title)
	if t.PaperClaim != "" {
		fmt.Fprintf(&b, "*Paper claim:* %s\n\n", t.PaperClaim)
	}
	if len(t.Headers) > 0 {
		b.WriteString("| " + strings.Join(t.Headers, " | ") + " |\n")
		b.WriteString("|" + strings.Repeat("---|", len(t.Headers)) + "\n")
		for _, row := range t.Rows {
			b.WriteString("| " + strings.Join(row, " | ") + " |\n")
		}
		b.WriteString("\n")
	}
	if t.Text != "" {
		b.WriteString("```\n" + t.Text + "```\n\n")
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "- %s\n", n)
	}
	if len(t.Notes) > 0 {
		b.WriteString("\n")
	}
	return b.String()
}

// Experiment pairs an id with its generator.
type Experiment struct {
	ID    string
	Title string
	Run   func() (*Table, error)
}

// All returns every experiment in index order (E1–E12, then F1–F3).
func All() []Experiment {
	return []Experiment{
		{"E1", "Exponential Algorithm (Proposition 1)", E1Exponential},
		{"E2", "Algorithm B family (Theorem 3)", E2AlgorithmB},
		{"E3", "Algorithm A family (Theorem 2)", E3AlgorithmA},
		{"E4", "Algorithm C (Theorem 4)", E4AlgorithmC},
		{"E5", "Hybrid Algorithm (Theorem 1, Main Theorem)", E5Hybrid},
		{"E6", "Rounds vs message-length trade-off vs Coan", E6Tradeoff},
		{"E7", "Exponential Algorithm vs PSL baseline", E7PSL},
		{"E8", "Per-block fault-detection dynamics", E8FaultDetection},
		{"E9", "Algorithm C vs Phase Queen (Section 5)", E9PhaseQueen},
		{"E10", "Ablation: fault discovery and masking", E10Ablation},
		{"E11", "Interactive consistency extension", E11Vector},
		{"E12", "Large-domain reduction extension (Section 2 remark)", E12Multivalued},
		{"F1", "Information Gathering Tree (Figure 1)", F1Tree},
		{"F2", "Algorithm B block schedule (Figure 2)", F2PlanB},
		{"F3", "Hybrid shift schedule (Figure 3)", F3PlanHybrid},
	}
}

// RunByID runs one experiment.
func RunByID(id string) (*Table, error) {
	for _, e := range All() {
		if strings.EqualFold(e.ID, id) {
			return e.Run()
		}
	}
	return nil, fmt.Errorf("experiments: unknown id %q", id)
}

// IDs lists the known experiment ids.
func IDs() []string {
	var out []string
	for _, e := range All() {
		out = append(out, e.ID)
	}
	return out
}

// itoa is shorthand.
func itoa(v int) string { return fmt.Sprintf("%d", v) }

// human renders big counts compactly (12.3k, 4.5M).
func human(v int) string {
	switch {
	case v >= 1_000_000:
		return fmt.Sprintf("%.1fM", float64(v)/1e6)
	case v >= 10_000:
		return fmt.Sprintf("%.0fk", float64(v)/1e3)
	case v >= 1_000:
		return fmt.Sprintf("%.1fk", float64(v)/1e3)
	default:
		return itoa(v)
	}
}

// humanF renders float counts compactly.
func humanF(v float64) string {
	switch {
	case v >= 1e12:
		return fmt.Sprintf("%.1fT", v/1e12)
	case v >= 1e9:
		return fmt.Sprintf("%.1fG", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.1fM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1fk", v/1e3)
	default:
		return fmt.Sprintf("%.1f", v)
	}
}

// okFail renders a boolean check.
func okFail(ok bool) string {
	if ok {
		return "ok"
	}
	return "FAIL"
}

// sortedKeys returns a map's keys in order (for deterministic notes).
func sortedKeys(m map[int]int) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
