package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"
)

// userInput is one generated user: a unique name, a PIN and the payload the
// user backs up.
type userInput struct {
	Name    string
	PIN     string
	Payload []byte
}

// arrival is one scheduled operation of the open-loop workload.
type arrival struct {
	At      time.Duration // offset from the phase start
	Probe   bool          // a read probe; otherwise a re-backup
	User    int           // index into the enrolled population
	Payload []byte        // re-backup payload; nil for probes
}

// generator derives every workload input from the run's seed. The inputs
// depend only on the seed and the order of calls, never on timing, so the
// same seed gives the same users, PINs, payloads and arrival times.
type generator struct {
	rng   *rand.Rand
	users int
}

func newGenerator(seed int64) *generator {
	return &generator{rng: rand.New(rand.NewSource(seed))}
}

// payload returns a backup payload of 32 to 255 random bytes.
func (g *generator) payload() []byte {
	p := make([]byte, 32+g.rng.Intn(224))
	g.rng.Read(p)
	return p
}

// user returns a user distinct from every earlier one of this generator.
func (g *generator) user() userInput {
	g.users++
	return userInput{
		Name:    fmt.Sprintf("user-%06d-%08x", g.users, g.rng.Uint32()),
		PIN:     fmt.Sprintf("%06d", g.rng.Intn(1_000_000)),
		Payload: g.payload(),
	}
}

// schedule returns n arrivals spread over d. A Poisson process conditioned
// on n arrivals in d places them at n sorted uniform offsets; fixing n keeps
// the offered load identical from seed to seed. Exactly half the arrivals
// are probes, in seeded order. Arrival i belongs to population member
// perm[i mod population], so a user is revisited only after every other
// member has had a turn.
func (g *generator) schedule(n, population int, d time.Duration) []arrival {
	at := make([]time.Duration, n)
	for i := range at {
		at[i] = time.Duration(g.rng.Int63n(int64(d)))
	}
	sort.Slice(at, func(i, j int) bool { return at[i] < at[j] })
	probe := make([]bool, n)
	for i := 0; i < n/2; i++ {
		probe[i] = true
	}
	g.rng.Shuffle(n, func(i, j int) { probe[i], probe[j] = probe[j], probe[i] })
	perm := g.rng.Perm(population)
	out := make([]arrival, n)
	for i := range out {
		out[i] = arrival{At: at[i], Probe: probe[i], User: perm[i%population]}
		if !probe[i] {
			out[i].Payload = g.payload()
		}
	}
	return out
}
