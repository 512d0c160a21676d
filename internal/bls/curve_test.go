package bls

import (
	"crypto/rand"
	"encoding/hex"
	"math/big"
	"testing"
)

func TestGeneratorsOnCurve(t *testing.T) {
	if !G1Generator().OnCurve() {
		t.Fatal("G1 generator off curve")
	}
	if !G2Generator().OnCurve() {
		t.Fatal("G2 generator off curve")
	}
}

func TestGeneratorsInSubgroup(t *testing.T) {
	if !G1Generator().InSubgroup() {
		t.Fatal("G1 generator not in subgroup (r·G != ∞)")
	}
	if !G2Generator().InSubgroup() {
		t.Fatal("G2 generator not in subgroup")
	}
}

func TestG1GroupLaws(t *testing.T) {
	g := G1Generator()
	a, _ := rand.Int(rand.Reader, rOrder)
	b, _ := rand.Int(rand.Reader, rOrder)
	P, Q := g.Mul(a), g.Mul(b)
	if !P.Add(Q).Equal(Q.Add(P)) {
		t.Fatal("G1 addition not commutative")
	}
	sum := new(big.Int).Add(a, b)
	if !g.Mul(sum).Equal(P.Add(Q)) {
		t.Fatal("G1 scalar homomorphism broken")
	}
	if !P.Add(P.Neg()).IsInfinity() {
		t.Fatal("P + (-P) != ∞")
	}
	if !P.Add(g1Infinity()).Equal(P) {
		t.Fatal("P + ∞ != P")
	}
	if !P.OnCurve() {
		t.Fatal("scalar multiple off curve")
	}
}

func TestG2GroupLaws(t *testing.T) {
	g := G2Generator()
	a, _ := rand.Int(rand.Reader, rOrder)
	b, _ := rand.Int(rand.Reader, rOrder)
	P, Q := g.Mul(a), g.Mul(b)
	if !P.Add(Q).Equal(Q.Add(P)) {
		t.Fatal("G2 addition not commutative")
	}
	sum := new(big.Int).Add(a, b)
	if !g.Mul(sum).Equal(P.Add(Q)) {
		t.Fatal("G2 scalar homomorphism broken")
	}
	if !P.Add(P.Neg()).IsInfinity() {
		t.Fatal("P + (-P) != ∞")
	}
	if !P.OnCurve() {
		t.Fatal("scalar multiple off curve")
	}
}

func TestG1DoubleMatchesAdd(t *testing.T) {
	g := G1Generator()
	if !g.Add(g).Equal(g.Mul(big.NewInt(2))) {
		t.Fatal("2G mismatch")
	}
	if !g.Add(g).Add(g).Equal(g.Mul(big.NewInt(3))) {
		t.Fatal("3G mismatch")
	}
}

func TestHashToG1(t *testing.T) {
	t.Run("rfc9380", func(t *testing.T) {
		p := HashToG1("test", []byte("message"))
		if !p.InSubgroup() {
			t.Fatal("hashed point not in subgroup")
		}
		q := HashToG1("test", []byte("message"))
		if !p.Equal(q) {
			t.Fatal("hash-to-curve not deterministic")
		}
		r := HashToG1("test", []byte("other"))
		if p.Equal(r) {
			t.Fatal("different messages hash to same point")
		}
		s := HashToG1("other-domain", []byte("message"))
		if p.Equal(s) {
			t.Fatal("different domains hash to same point")
		}
	})
}

func TestG1Serialization(t *testing.T) {
	p := G1Generator().Mul(big.NewInt(987654321))
	got, err := G1FromBytes(p.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(p) {
		t.Fatal("G1 round-trip failed")
	}
	inf, err := G1FromBytes(g1Infinity().Bytes())
	if err != nil || !inf.IsInfinity() {
		t.Fatal("G1 infinity round-trip failed")
	}
	if _, err := G1FromBytes(make([]byte, 5)); err == nil {
		t.Fatal("short encoding accepted")
	}
	bad := p.Bytes()
	bad[10] ^= 1
	if _, err := G1FromBytes(bad); err == nil {
		t.Fatal("off-curve point accepted")
	}
}

func TestG2Serialization(t *testing.T) {
	p := G2Generator().Mul(big.NewInt(123456789))
	got, err := G2FromBytes(p.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(p) {
		t.Fatal("G2 round-trip failed")
	}
	inf, err := G2FromBytes(g2Infinity().Bytes())
	if err != nil || !inf.IsInfinity() {
		t.Fatal("G2 infinity round-trip failed")
	}
	bad := p.Bytes()
	bad[20] ^= 1
	if _, err := G2FromBytes(bad); err == nil {
		t.Fatal("corrupted G2 point accepted")
	}
}

func TestSubgroupRejection(t *testing.T) {
	// A point on the curve but outside the r-order subgroup must be
	// rejected by deserialization. Construct one by finding an x whose
	// curve point has full cofactor order: hash points *before* cofactor
	// clearing are overwhelmingly outside the subgroup.
	x := big.NewInt(5)
	for {
		rhs := fpAdd(fpMul(fpMul(x, x), x), big4)
		y := new(big.Int).Exp(rhs, sqrtExp, pMod)
		if fpMul(y, y).Cmp(rhs) == 0 {
			var fx, fy fe
			feFromBig(&fx, x)
			feFromBig(&fy, y)
			p := g1FromAffine(fx, fy)
			if p.OnCurve() && !p.InSubgroup() {
				if _, err := G1FromBytes(p.Bytes()); err == nil {
					t.Fatal("non-subgroup point accepted")
				}
				return
			}
		}
		x.Add(x, big.NewInt(1))
	}
}

func TestGeneratorVectors(t *testing.T) {
	// The serialized generators must match the published BLS12-381
	// uncompressed affine coordinates (draft-irtf-cfrg-pairing-friendly
	// curves, §4.2.1) byte for byte.
	g1 := G1Generator().Bytes()
	wantG1 := "04" +
		"17f1d3a73197d7942695638c4fa9ac0fc3688c4f9774b905a14e3a3f171bac586c55e83ff97a1aeffb3af00adb22c6bb" +
		"08b3f481e3aaa0f1a09e30ed741d8ae4fcf5e095d5d00af600db18cb2c04b3edd03cc744a2888ae40caa232946c5e7e1"
	if got := hex.EncodeToString(g1); got != wantG1 {
		t.Fatalf("G1 generator drifted:\n got %s\nwant %s", got, wantG1)
	}
	g2 := G2Generator().Bytes()
	wantG2 := "04" +
		"024aa2b2f08f0a91260805272dc51051c6e47ad4fa403b02b4510b647ae3d1770bac0326a805bbefd48056c8c121bdb8" +
		"13e02b6052719f607dacd3a088274f65596bd0d09920b61ab5da61bbdc7f5049334cf11213945d57e5ac7d055d042b7e" +
		"0ce5d527727d6e118cc9cdc6da2e351aadfd9baa8cbdd3a76d429a695160d12c923ac9cc3baca289e193548608b82801" +
		"0606c4a02ea734cc32acd2b02bc28b99cb3e287e85a763af267492ab572e99ab3f370d275cec1da1aaa9075ff05f79be"
	if got := hex.EncodeToString(g2); got != wantG2 {
		t.Fatalf("G2 generator drifted:\n got %s\nwant %s", got, wantG2)
	}
}

func TestProjectiveAffineConsistency(t *testing.T) {
	// Points reached through different addition chains have different Z
	// coordinates but must compare and serialize identically.
	g := G1Generator()
	a := g.Add(g).Add(g)      // ((G+G)+G)
	b := g.Mul(big.NewInt(3)) // 3·G
	if !a.Equal(b) {
		t.Fatal("projective Equal broken across chains")
	}
	if string(a.Bytes()) != string(b.Bytes()) {
		t.Fatal("affine serialization differs across chains")
	}
	h := G2Generator()
	c := h.Add(h).Add(h)
	d := h.Mul(big.NewInt(3))
	if !c.Equal(d) || string(c.Bytes()) != string(d.Bytes()) {
		t.Fatal("G2 projective consistency broken")
	}
}
