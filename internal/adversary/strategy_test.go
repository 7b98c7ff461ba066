package adversary

import (
	"bytes"
	"math/rand"
	"testing"
)

func rng() *rand.Rand { return rand.New(rand.NewSource(1)) }

func honest(n int, payload []byte) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = payload
	}
	return out
}

func TestNewKnowsAllNames(t *testing.T) {
	for _, name := range Names() {
		s, err := New(name, 10)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if s.Name() != name {
			t.Errorf("New(%q).Name() = %q", name, s.Name())
		}
	}
	if _, err := New("definitely-not-a-strategy", 10); err == nil {
		t.Fatal("unknown strategy accepted")
	}
}

func TestStrategiesNeverMutateHonestPayload(t *testing.T) {
	orig := []byte{1, 0, 1, 1, 0}
	for _, name := range Names() {
		s, err := New(name, 8)
		if err != nil {
			t.Fatal(err)
		}
		payload := append([]byte(nil), orig...)
		h := honest(5, payload)
		for round := 1; round <= 8; round++ {
			s.Mutate(round, 2, 5, h, rng())
		}
		if !bytes.Equal(payload, orig) {
			t.Fatalf("%s mutated the honest payload in place: %v", name, payload)
		}
	}
}

func TestStrategiesHandleNilHonest(t *testing.T) {
	for _, name := range Names() {
		s, err := New(name, 8)
		if err != nil {
			t.Fatal(err)
		}
		out := s.Mutate(2, 0, 5, nil, rng())
		for i, p := range out {
			if p != nil {
				t.Fatalf("%s invented payload %v for dest %d from nil honest outbox", name, p, i)
			}
		}
	}
}

func TestSilent(t *testing.T) {
	if out := (Silent{}).Mutate(1, 0, 4, honest(4, []byte{1}), rng()); out != nil {
		t.Fatalf("silent sent %v", out)
	}
}

func TestCrashPhases(t *testing.T) {
	c := Crash{Round: 3}
	h := honest(6, []byte{9})
	if out := c.Mutate(2, 0, 6, h, rng()); &out[0] == nil || out[0] == nil {
		t.Fatal("crash must be honest before its round")
	}
	out := c.Mutate(3, 0, 6, h, rng())
	for j := 0; j < 3; j++ {
		if out[j] == nil {
			t.Fatalf("crash round: lower half dest %d missing", j)
		}
	}
	for j := 3; j < 6; j++ {
		if out[j] != nil {
			t.Fatalf("crash round: upper half dest %d got %v", j, out[j])
		}
	}
	if out := c.Mutate(4, 0, 6, h, rng()); out != nil {
		t.Fatal("crash must be silent after its round")
	}
}

func TestOmitSendsToOddOnly(t *testing.T) {
	out := (Omit{}).Mutate(1, 0, 6, honest(6, []byte{5}), rng())
	for j, p := range out {
		if (j%2 == 1) != (p != nil) {
			t.Fatalf("omit dest %d: payload %v", j, p)
		}
	}
}

func TestSplitBrainHalves(t *testing.T) {
	out := (SplitBrain{}).Mutate(1, 0, 4, honest(4, []byte{1, 0}), rng())
	if !bytes.Equal(out[0], []byte{1, 0}) || !bytes.Equal(out[2], []byte{1, 0}) {
		t.Fatalf("even dests should get honest payload: %v", out)
	}
	if !bytes.Equal(out[1], []byte{0, 1}) || !bytes.Equal(out[3], []byte{0, 1}) {
		t.Fatalf("odd dests should get flipped payload: %v", out)
	}
}

func TestFlipConsistentLie(t *testing.T) {
	out := (Flip{}).Mutate(1, 0, 3, honest(3, []byte{1, 1, 0}), rng())
	want := []byte{0, 0, 1}
	for j := range out {
		if !bytes.Equal(out[j], want) {
			t.Fatalf("flip dest %d = %v, want %v", j, out[j], want)
		}
	}
}

func TestGarbageKeepsLengthMostly(t *testing.T) {
	g := Garbage{}
	base := make([]byte, 32)
	sameLen := 0
	total := 0
	r := rng()
	for round := 0; round < 50; round++ {
		out := g.Mutate(round, 0, 4, honest(4, base), r)
		for _, p := range out {
			total++
			if len(p) == len(base) {
				sameLen++
			}
		}
	}
	if sameLen < total*3/4 {
		t.Fatalf("garbage changed length too often: %d/%d kept", sameLen, total)
	}
}

func TestNoiseFlipsSomeBits(t *testing.T) {
	n := Noise{P: 0.5}
	base := make([]byte, 64)
	out := n.Mutate(1, 0, 2, honest(2, base), rng())
	flipped := 0
	for _, b := range out[0] {
		if b == 1 {
			flipped++
		}
	}
	if flipped == 0 || flipped == 64 {
		t.Fatalf("noise flipped %d/64 bits", flipped)
	}
}

func TestSleeperHonestThenByzantine(t *testing.T) {
	s := Sleeper{WakeRound: 4}
	h := honest(4, []byte{1})
	if out := s.Mutate(3, 0, 4, h, rng()); !bytes.Equal(out[1], []byte{1}) {
		t.Fatal("sleeper must be honest before waking")
	}
	if out := s.Mutate(4, 0, 4, h, rng()); !bytes.Equal(out[1], []byte{0}) {
		t.Fatal("sleeper must split after waking")
	}
}

func TestSeesawAlternates(t *testing.T) {
	s := Seesaw{}
	h := honest(3, []byte{1, 1})
	even := s.Mutate(2, 0, 3, h, rng())
	odd := s.Mutate(3, 0, 3, h, rng())
	if !bytes.Equal(even[0], []byte{0, 0}) || !bytes.Equal(odd[0], []byte{1, 1}) {
		t.Fatalf("seesaw rounds: even=%v odd=%v", even[0], odd[0])
	}
}

func TestColludeThirds(t *testing.T) {
	out := (Collude{}).Mutate(1, 0, 9, honest(9, []byte{1}), rng())
	for j := 0; j < 3; j++ {
		if !bytes.Equal(out[j], []byte{1}) {
			t.Fatalf("first third dest %d = %v", j, out[j])
		}
	}
	for j := 3; j < 6; j++ {
		if !bytes.Equal(out[j], []byte{0}) {
			t.Fatalf("second third dest %d = %v", j, out[j])
		}
	}
	for j := 6; j < 9; j++ {
		if out[j] != nil {
			t.Fatalf("last third dest %d = %v", j, out[j])
		}
	}
}

// fakeShadow is a minimal sim.Processor recording delivered rounds.
type fakeShadow struct {
	id        int
	delivered int
}

func (f *fakeShadow) ID() int { return f.id }
func (f *fakeShadow) PrepareRound(round int) [][]byte {
	return [][]byte{{byte(round)}, {byte(round)}, {byte(round)}}
}
func (f *fakeShadow) DeliverRound(round int, inbox [][]byte) { f.delivered++ }

func TestProcessorWrapsShadow(t *testing.T) {
	sh := &fakeShadow{id: 1}
	p := NewProcessor(sh, Flip{}, 7, 3)
	if p.ID() != 1 {
		t.Fatalf("ID = %d", p.ID())
	}
	if p.Strategy().Name() != "flip" {
		t.Fatalf("strategy = %q", p.Strategy().Name())
	}
	out := p.PrepareRound(2)
	if !bytes.Equal(out[0], []byte{3}) { // 2^1 = 3
		t.Fatalf("flipped payload = %v", out[0])
	}
	p.DeliverRound(2, make([][]byte, 3))
	if sh.delivered != 1 {
		t.Fatal("shadow did not receive the round")
	}
}

func TestProcessorRNGDeterministicPerID(t *testing.T) {
	mk := func(id int) []byte {
		p := NewProcessor(&fakeShadow{id: id}, Garbage{}, 99, 3)
		return p.PrepareRound(1)[0]
	}
	if !bytes.Equal(mk(1), mk(1)) {
		t.Fatal("same id and seed must give identical adversary randomness")
	}
	if bytes.Equal(mk(1), mk(2)) {
		t.Fatal("different ids should diverge (seed mixing)")
	}
}

func TestHonestPayloadHelper(t *testing.T) {
	if honestPayload(nil) != nil {
		t.Error("nil outbox")
	}
	if honestPayload([][]byte{nil, {4}}) == nil {
		t.Error("skips nil entries")
	}
}

func TestProcessorLazyRNGStreamMatchesEagerSource(t *testing.T) {
	// A processor's draws must be the stream rand.New(rand.NewSource(s))
	// gives for its mixed seed s: building the source on the first draw
	// changes nothing a strategy sees.
	const seed, id, n = 99, 4, 7
	p := NewProcessor(&fakeShadow{id: id}, Garbage{}, seed, n)
	ref := rand.New(rand.NewSource(seed ^ int64(id+1)*0x9e3779b9))
	for round := 1; round <= 20; round++ {
		got := p.PrepareRound(round)
		want := Garbage{}.Mutate(round, id, n, (&fakeShadow{id: id}).PrepareRound(round), ref)
		if len(got) != len(want) {
			t.Fatalf("round %d: %d payloads, want %d", round, len(got), len(want))
		}
		for j := range got {
			if !bytes.Equal(got[j], want[j]) {
				t.Fatalf("round %d dest %d: payload %v, want %v", round, j, got[j], want[j])
			}
		}
	}
}

func TestSilentProcessorBuildsNoSource(t *testing.T) {
	// A strategy that never draws never pays for a seeded source: a silent
	// processor's whole life allocates less than the same life plus one
	// draw, which builds the source.
	life := func(draw bool) func() {
		return func() {
			p := NewProcessor(&fakeShadow{id: 2}, Silent{}, 5, 3)
			for round := 1; round <= 5; round++ {
				p.PrepareRound(round)
			}
			if draw {
				p.rng.Int63()
			}
		}
	}
	silent := testing.AllocsPerRun(50, life(false))
	drawn := testing.AllocsPerRun(50, life(true))
	if drawn <= silent {
		t.Fatalf("a draw allocated nothing beyond a silent processor's %.0f allocs: the source was built eagerly", silent)
	}
}
