package bls

// scalarmul_ct_test.go drives G1.MulSecret differentially against the
// GLV path across the exceptional-case boundary: zero and tiny scalars
// (the accumulator-at-infinity and digit-zero fixups), scalars with long
// runs of zero windows, r−1, and random scalars.

import (
	"math/big"
	"math/rand"
	"testing"
)

func TestG1MulSecretDifferential(t *testing.T) {
	g := G1Generator()
	h := HashToG1("mulsecret-test", []byte("base"))
	rng := rand.New(rand.NewSource(0x5afe))

	scalars := []*big.Int{
		big.NewInt(0),
		big.NewInt(1),
		big.NewInt(2),
		big.NewInt(15),
		big.NewInt(16),
		big.NewInt(17),
		big.NewInt(255),
		new(big.Int).Sub(Order(), big.NewInt(1)), // r − 1 = −1 mod r
		new(big.Int).Sub(Order(), big.NewInt(2)),
		new(big.Int).Lsh(big.NewInt(1), 200),       // long zero-window tail
		new(big.Int).SetBit(big.NewInt(3), 252, 1), // leading digit + gap
	}
	for i := 0; i < 40; i++ {
		k := new(big.Int).Rand(rng, Order())
		scalars = append(scalars, k)
	}

	for _, p := range []G1{g, h} {
		for _, k := range scalars {
			want := p.Mul(k)
			got := p.MulSecret(k)
			if !want.Equal(got) {
				t.Fatalf("MulSecret(%v) disagrees with Mul: want %x got %x", k, want.Bytes(), got.Bytes())
			}
		}
	}
}

// TestG1MulSecretOutOfRange covers the vartime pre-reduction contract
// for negative and ≥ r scalars.
func TestG1MulSecretOutOfRange(t *testing.T) {
	g := G1Generator()
	cases := []*big.Int{
		new(big.Int).Neg(big.NewInt(7)),
		Order(),
		new(big.Int).Add(Order(), big.NewInt(5)),
		new(big.Int).Mul(Order(), big.NewInt(3)),
	}
	for _, k := range cases {
		want := g.Mul(k)
		got := g.MulSecret(k)
		if !want.Equal(got) {
			t.Fatalf("MulSecret(%v) out-of-range: want %x got %x", k, want.Bytes(), got.Bytes())
		}
	}
}

// TestG1MulSecretInfinity checks the identity base point short-circuit.
func TestG1MulSecretInfinity(t *testing.T) {
	inf := g1Infinity()
	if got := inf.MulSecret(big.NewInt(42)); !got.IsInfinity() {
		t.Fatalf("MulSecret on infinity returned a finite point")
	}
}

// TestSignUsesConstantTimePath pins the signature bytes across the
// Mul → MulSecret routing change: same key, same message, same bytes.
func TestSignUsesConstantTimePath(t *testing.T) {
	g := HashToG1(sigDomain, []byte("msg"))
	k := new(big.Int).SetInt64(0x1234_5678_9abc)
	if !g.Mul(k).Equal(g.MulSecret(k)) {
		t.Fatal("CT and vartime scalar multiplication disagree on the signing shape")
	}
}

func BenchmarkG1MulSecret(b *testing.B) {
	g := G1Generator()
	rng := rand.New(rand.NewSource(9))
	k := new(big.Int).Rand(rng, Order())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.MulSecret(k)
	}
}
