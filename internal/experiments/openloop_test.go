package experiments

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram()
	if h.Quantile(0.5) != 0 || h.Count() != 0 {
		t.Fatal("empty histogram should report zero")
	}
	// 1..1000µs uniform: quantiles must land within the 3.2% bucket error.
	for i := 1; i <= 1000; i++ {
		h.Record(time.Duration(i) * time.Microsecond)
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d", h.Count())
	}
	for _, tc := range []struct {
		q    float64
		want time.Duration
	}{
		{0.50, 500 * time.Microsecond},
		{0.95, 950 * time.Microsecond},
		{0.99, 990 * time.Microsecond},
	} {
		got := h.Quantile(tc.q)
		errFrac := float64(got-tc.want) / float64(tc.want)
		if errFrac < 0 {
			errFrac = -errFrac
		}
		if errFrac > 0.04 {
			t.Fatalf("q%.2f = %v, want ≈%v (%.1f%% off)", tc.q, got, tc.want, errFrac*100)
		}
	}
	if h.Max() != 1000*time.Microsecond {
		t.Fatalf("max = %v", h.Max())
	}
	if h.Quantile(1) > h.Max() {
		t.Fatal("quantile exceeded observed max")
	}

	// Merge preserves totals and extrema.
	h2 := NewHistogram()
	h2.Record(5 * time.Millisecond)
	h2.Merge(h)
	if h2.Count() != 1001 || h2.Max() != 5*time.Millisecond {
		t.Fatalf("merge: count=%d max=%v", h2.Count(), h2.Max())
	}
}

func TestHistogramBucketRoundTrip(t *testing.T) {
	// Every bucket's midpoint must map back into the same bucket, and
	// indexes must stay in range for the full int64 span.
	for _, v := range []int64{0, 1, 31, 32, 33, 1000, 1 << 20, 1<<62 + 12345, 1<<63 - 1} {
		i := bucketIndex(v)
		if i < 0 || i >= histBuckets {
			t.Fatalf("bucketIndex(%d) = %d out of range", v, i)
		}
		mid := bucketMid(i)
		if bucketIndex(mid) != i {
			t.Fatalf("bucketMid(%d) = %d maps to bucket %d", i, mid, bucketIndex(mid))
		}
		if v >= 32 {
			// Relative bucket error ≤ 1/32.
			lo, hi := mid-v, v-mid
			if lo < 0 {
				lo = -lo
			}
			if hi < 0 {
				hi = -hi
			}
			if lo > v/16 && hi > v/16 {
				t.Fatalf("bucket mid %d too far from %d", mid, v)
			}
		}
	}
}

// TestOpenLoopSmoke drives a short mixed-traffic open-loop run on a tiny
// fleet and sanity-checks the accounting identities.
func TestOpenLoopSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("open-loop run takes a couple of wall-clock seconds")
	}
	cfg := OpenLoopConfig{
		NumHSMs: 6, ClusterSize: 4, Threshold: 2, Users: 6,
		Rate:     40,
		Duration: 1500 * time.Millisecond,
		Poisson:  true,
		Seed:     7,
	}
	res, err := OpenLoopRun(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Offered == 0 || res.Issued == 0 {
		t.Fatalf("no arrivals issued: %+v", res)
	}
	if res.Issued != res.Completed+res.Errors+res.Busy {
		t.Fatalf("issued %d != completed %d + errors %d + busy %d",
			res.Issued, res.Completed, res.Errors, res.Busy)
	}
	if res.Offered != res.Issued+res.Dropped {
		t.Fatalf("offered %d != issued %d + dropped %d", res.Offered, res.Issued, res.Dropped)
	}
	if res.Completed == 0 {
		t.Fatal("nothing completed")
	}
	if got := res.Overall.Count; got != res.Completed {
		t.Fatalf("histogram count %d != completed %d", got, res.Completed)
	}
	if res.Overall.P50 <= 0 || res.Overall.P99 < res.Overall.P50 {
		t.Fatalf("implausible quantiles: %+v", res.Overall)
	}
	if res.Errors > res.Issued/4 {
		t.Fatalf("error rate too high: %d of %d", res.Errors, res.Issued)
	}

	// The renderers must mention the fleet and parse back.
	table := RenderOpenLoop([]OpenLoopResult{res})
	if !strings.Contains(table, "p99") {
		t.Fatal("table missing quantile header")
	}
	rep := OpenLoopReport{Mode: "poisson", Fleets: []OpenLoopFleetReport{{NumHSMs: 6, Sweep: []OpenLoopResult{res}}}}
	blob, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back OpenLoopReport
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Fleets) != 1 || back.Fleets[0].Sweep[0].NumHSMs != 6 {
		t.Fatal("JSON round trip lost fleet data")
	}
}

// BenchmarkOpenLoopSmoke is the bench-guard smoke shape: a short
// fixed-rate open-loop burst on a small fleet. ns/op is dominated by the
// configured duration plus deployment setup, so the guard catches only
// gross regressions (setup blow-ups, drain hangs), which is the point.
func BenchmarkOpenLoopSmoke(b *testing.B) {
	cfg := OpenLoopConfig{
		NumHSMs: 6, ClusterSize: 4, Threshold: 2, Users: 4,
		Rate:     50,
		Duration: 500 * time.Millisecond,
		Seed:     11,
	}
	for i := 0; i < b.N; i++ {
		res, err := OpenLoopRun(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Completed == 0 {
			b.Fatal("no completions")
		}
	}
}

// TestOpenLoopArrivalAccounting pins the open-loop property the
// harness exists for: the arrival schedule depends only on rate and
// seed, never on completions, so two runs at the same rate offer the
// same arrival count even though service times differ.
func TestOpenLoopArrivalAccounting(t *testing.T) {
	if testing.Short() {
		t.Skip("open-loop run takes wall-clock time")
	}
	cfg := OpenLoopConfig{
		NumHSMs: 6, ClusterSize: 4, Threshold: 2, Users: 4,
		Rate:     30,
		Duration: time.Second,
		Seed:     3,
	}
	res, err := OpenLoopRun(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Fixed-rate arrivals over 1s at 30/s: rate·duration scheduled
	// arrivals (±1 for interval rounding) regardless of how long
	// operations took — the schedule must not depend on completions.
	if res.Offered < 30 || res.Offered > 31 {
		t.Fatalf("offered %d arrivals, want 30±1 (open-loop schedule must not depend on completions)", res.Offered)
	}
}
