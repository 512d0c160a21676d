package bls

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"
)

// BLS multisignatures with public-key aggregation [14]: signatures are G1
// points, public keys are G2 points. All HSMs sign the same message (the
// log-update tuple), the service provider adds the signatures together, and
// every HSM verifies the single aggregate against the sum of the public
// keys. Rogue-key attacks are prevented by proofs of possession, checked
// once when a public key is registered.

// Domain-separation tags: RFC 9380 DSTs that include the suite ID per
// §3.1.
const (
	sigDomain = "safetypin/bls/sig/v2/" + SuiteG1
	popDomain = "safetypin/bls/pop/v2/" + SuiteG1
)

// SecretKey is a BLS signing key.
type SecretKey struct {
	s *big.Int //spin:secret
}

// PublicKey is a BLS verification key.
type PublicKey struct {
	p G2
}

// Signature is a BLS signature (or aggregate of signatures).
type Signature struct {
	p G1
}

// GenerateKey samples a keypair from rng.
func GenerateKey(rng io.Reader) (*SecretKey, *PublicKey, error) {
	s, err := sampleScalar(rng)
	if err != nil {
		return nil, nil, err
	}
	// Constant-time fixed-base comb (g2_ct.go): no doublings, no
	// scalar-dependent branch or memory access.
	return &SecretKey{s: s}, &PublicKey{p: G2MulGenSecret(s)}, nil
}

// sampleScalar rejection-samples a nonzero scalar in [1, r).
func sampleScalar(rng io.Reader) (*big.Int, error) {
	for {
		s, err := rand.Int(rng, rOrder) //spin:secret
		if err != nil {
			return nil, fmt.Errorf("bls: sampling key: %w", err)
		}
		//spinlint:ignore ctsecret rejecting the zero scalar leaks one bit of a key that is then discarded
		if s.Sign() == 0 {
			continue
		}
		return s, nil
	}
}

// GenerateKeyBatch samples n keypairs at once: every secret scalar runs
// the constant-time comb individually, but the resulting public keys are
// converted to affine with ONE shared Montgomery batch inversion
// (g2NormalizeBatch) instead of n per-point inversions at serialization
// time — the fleet-provisioning path, where n is the fleet size.
func GenerateKeyBatch(rng io.Reader, n int) ([]*SecretKey, []*PublicKey, error) {
	if n < 0 {
		return nil, nil, fmt.Errorf("bls: negative batch size %d", n)
	}
	sks := make([]*SecretKey, n)
	ps := make([]G2, n)
	for i := range sks {
		s, err := sampleScalar(rng)
		if err != nil {
			return nil, nil, err
		}
		sks[i] = &SecretKey{s: s}
		ps[i] = G2MulGenSecret(s)
	}
	g2NormalizeBatch(ps)
	pks := make([]*PublicKey, n)
	for i := range pks {
		pks[i] = &PublicKey{p: ps[i]}
	}
	return sks, pks, nil
}

// Sign signs msg, hashing it onto G1 with the RFC 9380 hash.
func (sk *SecretKey) Sign(msg []byte) *Signature {
	// The hashed point is public; the scalar is the long-lived signing key,
	// so the multiplication runs on the constant-time window walk
	// (scalarmul_ct.go), not the GLV/wNAF path.
	return &Signature{p: HashToG1(sigDomain, msg).MulSecret(sk.s)}
}

// Verify checks a (possibly aggregate) signature on msg under pk (possibly
// an aggregate public key).
func (pk *PublicKey) Verify(msg []byte, sig *Signature) (bool, error) {
	if sig == nil || sig.p.IsInfinity() || pk.p.IsInfinity() {
		return false, nil
	}
	// e(σ, G2) == e(H(m), pk)  ⇔  e(−σ, G2)·e(H(m), pk) == 1
	return PairingCheck(
		[]G1{sig.p.Neg(), HashToG1(sigDomain, msg)},
		[]G2{G2Generator(), pk.p},
	)
}

// ProvePossession returns a proof of possession for the keypair, which
// registrars verify to block rogue-key aggregation attacks.
func (sk *SecretKey) ProvePossession(pk *PublicKey) *Signature {
	return &Signature{p: HashToG1(popDomain, pk.Bytes()).MulSecret(sk.s)}
}

// VerifyPossession checks a proof of possession for pk.
func VerifyPossession(pk *PublicKey, pop *Signature) (bool, error) {
	if pop == nil || pop.p.IsInfinity() || pk.p.IsInfinity() {
		return false, nil
	}
	return PairingCheck(
		[]G1{pop.p.Neg(), HashToG1(popDomain, pk.Bytes())},
		[]G2{G2Generator(), pk.p},
	)
}

// AggregateSignatures sums signatures on the same message into one, via
// the batch-affine summation tree (msm.go): each round of pairwise
// additions shares a single field inversion.
func AggregateSignatures(sigs []*Signature) (*Signature, error) {
	if len(sigs) == 0 {
		return nil, errors.New("bls: nothing to aggregate")
	}
	ps := make([]G1, len(sigs))
	for i, s := range sigs {
		if s == nil {
			return nil, fmt.Errorf("bls: nil signature at %d", i)
		}
		ps[i] = s.p
	}
	return &Signature{p: g1Sum(ps)}, nil
}

// AggregatePublicKeys sums public keys into the aggregate verification
// key, via the batch-affine summation tree (msm.go) — the per-epoch roster
// aggregation that used to be a chain of full Jacobian additions.
func AggregatePublicKeys(pks []*PublicKey) (*PublicKey, error) {
	if len(pks) == 0 {
		return nil, errors.New("bls: nothing to aggregate")
	}
	ps := make([]G2, len(pks))
	for i, pk := range pks {
		if pk == nil {
			return nil, fmt.Errorf("bls: nil public key at %d", i)
		}
		ps[i] = pk.p
	}
	return &PublicKey{p: g2Sum(ps)}, nil
}

// SubtractPublicKeys returns agg − (missing₀ + … + missingₙ₋₁): the
// incremental path for per-epoch quorum keys. Epoch commits carry
// near-complete signer sets, so subtracting the few absent signers from a
// cached full-roster aggregate costs O(missing) group operations where
// re-aggregating the quorum from scratch costs an O(n) MSM. The result is
// the exact group element the full aggregation would produce (point
// addition is exact), so serializations are byte-identical — asserted by
// the differential tests in aggsig.
func SubtractPublicKeys(agg *PublicKey, missing []*PublicKey) (*PublicKey, error) {
	if agg == nil {
		return nil, errors.New("bls: nil aggregate")
	}
	if len(missing) == 0 {
		return &PublicKey{p: agg.p}, nil
	}
	ps := make([]G2, len(missing))
	for i, pk := range missing {
		if pk == nil {
			return nil, fmt.Errorf("bls: nil public key at %d", i)
		}
		ps[i] = pk.p
	}
	return &PublicKey{p: agg.p.Add(g2Sum(ps).Neg())}, nil
}

// AddPublicKeys returns agg + pk — the O(1) cache update when a single
// key joins an already-aggregated roster.
func AddPublicKeys(agg, pk *PublicKey) (*PublicKey, error) {
	if agg == nil || pk == nil {
		return nil, errors.New("bls: nil public key")
	}
	return &PublicKey{p: agg.p.Add(pk.p)}, nil
}

// aggregatePublicKeysNaive is the retained point-by-point summation, the
// differential oracle (and benchmark baseline) for the batch-affine path.
func aggregatePublicKeysNaive(pks []*PublicKey) *PublicKey {
	acc := g2Infinity()
	for _, pk := range pks {
		acc = acc.Add(pk.p)
	}
	return &PublicKey{p: acc}
}

// Bytes serializes the public key in the legacy uncompressed format (the
// proof-of-possession domain hashes this encoding, so it is frozen).
func (pk *PublicKey) Bytes() []byte { return pk.p.Bytes() }

// BytesCompressed serializes the public key in the IETF/zcash 96-byte
// compressed format — the wire encoding for rosters.
func (pk *PublicKey) BytesCompressed() []byte { return pk.p.BytesCompressed() }

// PublicKeysBatchCompressed serializes a whole roster in the compressed
// format with one shared field inversion (G2BatchBytesCompressed).
func PublicKeysBatchCompressed(pks []*PublicKey) ([][]byte, error) {
	ps := make([]G2, len(pks))
	for i, pk := range pks {
		if pk == nil {
			return nil, fmt.Errorf("bls: nil public key at %d", i)
		}
		ps[i] = pk.p
	}
	return G2BatchBytesCompressed(ps), nil
}

// PublicKeyFromBytes decodes and validates an uncompressed public key.
func PublicKeyFromBytes(b []byte) (*PublicKey, error) {
	p, err := G2FromBytes(b)
	if err != nil {
		return nil, err
	}
	return &PublicKey{p: p}, nil
}

// PublicKeyFromCompressedBytes decodes and validates a compressed public
// key.
func PublicKeyFromCompressedBytes(b []byte) (*PublicKey, error) {
	p, err := G2FromCompressedBytes(b)
	if err != nil {
		return nil, err
	}
	return &PublicKey{p: p}, nil
}

// Bytes serializes the signature.
func (s *Signature) Bytes() []byte { return s.p.Bytes() }

// SignatureFromBytes decodes and validates a signature.
func SignatureFromBytes(b []byte) (*Signature, error) {
	p, err := G1FromBytes(b)
	if err != nil {
		return nil, err
	}
	return &Signature{p: p}, nil
}

// Equal reports public-key equality.
func (pk *PublicKey) Equal(other *PublicKey) bool {
	return other != nil && pk.p.Equal(other.p)
}
