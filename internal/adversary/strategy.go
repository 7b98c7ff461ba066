// Package adversary supplies Byzantine behaviors for fault injection.
//
// The paper's adversary is unrestricted: "There is no restriction on the
// behavior of faulty processors". Worst-case adversaries exist only inside
// the proofs, so the reproduction substitutes a library of concrete
// strategies (the catalog behind New and Names). Each faulty processor runs a
// shadow copy of the honest protocol and a Strategy that transforms the
// shadow's outgoing broadcast into arbitrary — including two-faced —
// per-destination payloads. Driving strategies from the honest payload
// keeps the lies "protocol-shaped": they parse correctly at receivers and
// therefore exercise the Fault Discovery Rule rather than just the
// missing-message default.
package adversary

import (
	"fmt"
	"math/rand"
	"sort"

	"shiftgears/internal/sim"
)

// Strategy decides what a faulty processor actually sends.
type Strategy interface {
	// Name identifies the strategy in configs and reports.
	Name() string
	// Mutate transforms the honest outbox into the Byzantine one for this
	// round. honest is what the shadow protocol would broadcast (nil when
	// it would send nothing); self is the faulty processor's id. Mutate
	// must not modify the honest payloads in place — they are shared with
	// the shadow's internal state.
	Mutate(round, self, n int, honest [][]byte, rng *rand.Rand) [][]byte
}

// Processor wraps a shadow protocol instance and a strategy into a
// sim.Processor. The shadow receives every round normally, so its state
// stays plausible; only its outgoing messages are corrupted.
type Processor struct {
	shadow sim.Processor
	strat  Strategy
	rng    *rand.Rand
	n      int
}

var _ sim.Processor = (*Processor)(nil)

// NewProcessor builds a faulty processor. The RNG is seeded from (seed,
// shadow id) so executions are deterministic in both engine modes. Its
// source is built on the first draw: most strategies never draw, and a
// seeded math/rand source is a ~5 KB allocation per faulty instance.
func NewProcessor(shadow sim.Processor, strat Strategy, seed int64, n int) *Processor {
	return &Processor{
		shadow: shadow,
		strat:  strat,
		rng:    rand.New(&lazySource{seed: seed ^ int64(shadow.ID()+1)*0x9e3779b9, newSource: rand.NewSource}), //gearsvet:allow seed derives from the run seed and the shadow's ID (golden-ratio mixed), so the stream replays identically per configuration
		n:      n,
	}
}

// lazySource is a rand.Source64 that builds its underlying source with
// newSource(seed) on the first draw. Its stream is identical to
// newSource(seed)'s. The constructor is a field, not a call in source,
// so the seeded PRNG construction stays at the one vetted call site in
// NewProcessor.
type lazySource struct {
	seed      int64
	newSource func(seed int64) rand.Source
	src       rand.Source64
}

func (s *lazySource) source() rand.Source64 {
	if s.src == nil {
		s.src = s.newSource(s.seed).(rand.Source64)
	}
	return s.src
}

// Int63 implements rand.Source.
func (s *lazySource) Int63() int64 { return s.source().Int63() }

// Uint64 implements rand.Source64.
func (s *lazySource) Uint64() uint64 { return s.source().Uint64() }

// Seed implements rand.Source: the next draw starts the stream of seed.
func (s *lazySource) Seed(seed int64) { s.seed, s.src = seed, nil }

// ID implements sim.Processor.
func (f *Processor) ID() int { return f.shadow.ID() }

// Strategy returns the active strategy.
func (f *Processor) Strategy() Strategy { return f.strat }

// PrepareRound implements sim.Processor: it lets the shadow prepare its
// honest broadcast, then hands it to the strategy.
func (f *Processor) PrepareRound(round int) [][]byte {
	honest := f.shadow.PrepareRound(round)
	return f.strat.Mutate(round, f.shadow.ID(), f.n, honest, f.rng)
}

// DeliverRound implements sim.Processor.
func (f *Processor) DeliverRound(round int, inbox [][]byte) {
	f.shadow.DeliverRound(round, inbox)
}

// clone copies a payload so strategies can rewrite bytes freely.
func clone(p []byte) []byte {
	if p == nil {
		return nil
	}
	return append([]byte(nil), p...)
}

// honestPayload extracts the broadcast payload from an honest outbox
// (correct processors send the same payload everywhere).
func honestPayload(honest [][]byte) []byte {
	if honest == nil {
		return nil
	}
	for _, p := range honest {
		if p != nil {
			return p
		}
	}
	return nil
}

// flip returns a copy of the payload with every value byte XOR'ed with 1,
// turning each value v into the different value v^1 (0↔1 on the binary
// domain).
func flip(p []byte) []byte {
	out := clone(p)
	for i := range out {
		out[i] ^= 1
	}
	return out
}

// New constructs a strategy by name. totalRounds lets round-dependent
// strategies (crash, sleeper) scale to the plan length and must be ≥ 1 —
// a strategy built against a nonsensical round count would silently
// never fire. Use Names for the full catalog.
func New(name string, totalRounds int) (Strategy, error) {
	if totalRounds < 1 {
		return nil, fmt.Errorf("adversary: strategy %q needs a round count ≥ 1, have %d", name, totalRounds)
	}
	mid := totalRounds/2 + 1
	if mid < 2 {
		mid = 2
	}
	wake := (2*totalRounds)/3 + 1
	if wake < 2 {
		wake = 2
	}
	switch name {
	case "silent":
		return Silent{}, nil
	case "crash":
		return Crash{Round: mid}, nil
	case "omit":
		return Omit{}, nil
	case "garbage":
		return Garbage{}, nil
	case "splitbrain":
		return SplitBrain{}, nil
	case "flip":
		return Flip{}, nil
	case "noise":
		return Noise{P: 0.3}, nil
	case "sleeper":
		return Sleeper{WakeRound: wake}, nil
	case "stutter":
		return &Stutter{}, nil
	case "seesaw":
		return Seesaw{}, nil
	case "collude":
		return Collude{}, nil
	default:
		return nil, fmt.Errorf("adversary: unknown strategy %q (known: %v)", name, Names())
	}
}

// Names lists the registered strategy names.
func Names() []string {
	names := []string{
		"silent", "crash", "omit", "garbage", "splitbrain",
		"flip", "noise", "sleeper", "stutter", "seesaw", "collude",
	}
	sort.Strings(names)
	return names
}
