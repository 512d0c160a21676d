package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"safetypin/internal/bfe"
	"safetypin/internal/experiments"
)

// tinyConfig is an 8-HSM fleet small enough to run every workload under
// the race detector in seconds.
func tinyConfig() config {
	return config{
		HSMs: 8, Cluster: 8, Threshold: 4,
		BFE:        bfe.Params{M: 512, K: 4},
		Setups:     2,
		WaveSize:   8,
		Population: 8,
		Rate:       40,
	}
}

func TestSmoke(t *testing.T) {
	for _, wl := range []string{"recover-solo", "recover-wave", "backup-probe"} {
		for _, traced := range []bool{false, true} {
			wl, traced := wl, traced
			name := wl + "/untraced"
			if traced {
				name = wl + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				var report bytes.Buffer
				o := options{workload: wl, seed: 7, seconds: 1, trace: traced, out: dir, cfg: tinyConfig()}
				out, err := run(context.Background(), o, &report)
				if err != nil {
					t.Fatalf("run: %v\n%s", err, report.String())
				}
				if !out.Correct || out.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d\n%s", out.Correct, out.Attempted, report.String())
				}
				var want []string
				if traced {
					for _, u := range perLayerUnits() {
						want = append(want, u.name)
					}
				} else {
					for _, u := range endToEndUnits {
						want = append(want, u.name)
						if out.Metrics[u.name].Value <= 0 {
							t.Errorf("%s = %v, want > 0", u.name, out.Metrics[u.name].Value)
						}
					}
				}
				var got []string
				for k := range out.Metrics {
					got = append(got, k)
				}
				sort.Strings(got)
				sort.Strings(want)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("metrics %v, want %v", got, want)
				}
				if traced {
					checkSpanFile(t, filepath.Join(dir, "trace", wl+"-seed7.jsonl"))
				}
			})
		}
	}
}

// checkSpanFile checks every span parses and every parent exists.
func checkSpanFile(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ids := make(map[uint64]bool)
	var spans []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("span %q: %v", sc.Text(), err)
		}
		if s.End < s.Start {
			t.Errorf("span %+v ends before it starts", s)
		}
		ids[s.ID] = true
		spans = append(spans, s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 {
		t.Fatal("no spans written")
	}
	for _, s := range spans {
		if s.Parent != 0 && !ids[s.Parent] {
			t.Errorf("span %s has missing parent %d", s.Name, s.Parent)
		}
	}
}

func TestTail(t *testing.T) {
	h := experiments.NewHistogram()
	for i := 1; i <= 100; i++ {
		h.Record(time.Duration(i) * time.Millisecond)
	}
	d, q, ok := tail(h)
	if !ok || q != 0.90 {
		t.Fatalf("n=100: q=%v ok=%v, want p90", q, ok)
	}
	if got := durMS(d); got < 90*0.968 || got > 90*1.032 {
		t.Errorf("n=100: tail %v ms, want 90 ms within the histogram's 3.2%%", got)
	}

	h = experiments.NewHistogram()
	for i := 1; i <= 11; i++ {
		h.Record(time.Duration(i) * time.Millisecond)
	}
	if d, q, ok := tail(h); !ok || q != 1.0/11 || durMS(d) < 0.968 || durMS(d) > 1.032 {
		t.Errorf("n=11: tail %v at q=%v ok=%v, want the smallest sample at p9.1", d, q, ok)
	}

	h = experiments.NewHistogram()
	for i := 1; i <= 10; i++ {
		h.Record(time.Duration(i) * time.Millisecond)
	}
	if d, _, ok := tail(h); ok || d != 10*time.Millisecond {
		t.Errorf("n=10: tail %v ok=%v, want the maximum and no supported percentile", d, ok)
	}
}

func TestSelfTime(t *testing.T) {
	for _, c := range []struct {
		name string
		kids [][2]int64
		want int64
	}{
		{"no children", nil, 100},
		{"one child", [][2]int64{{10, 30}}, 80},
		{"overlapping", [][2]int64{{20, 40}, {10, 30}}, 70},
		{"nested", [][2]int64{{10, 50}, {20, 30}}, 60},
		{"disjoint", [][2]int64{{30, 40}, {10, 20}}, 80},
		{"touching", [][2]int64{{10, 20}, {20, 30}}, 80},
		{"clipped to the parent", [][2]int64{{-10, 10}, {90, 120}}, 80},
		{"outside the parent", [][2]int64{{200, 300}}, 100},
		{"covering the parent", [][2]int64{{-5, 105}, {40, 60}}, 0},
	} {
		if got := selfTime(0, 100, c.kids); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	draw := func(seed int64) ([]userInput, []arrival) {
		g := newGenerator(seed)
		var users []userInput
		for i := 0; i < 5; i++ {
			users = append(users, g.user())
		}
		return users, g.schedule(40, 16, 2*time.Second)
	}
	u1, s1 := draw(42)
	u2, s2 := draw(42)
	if !reflect.DeepEqual(u1, u2) || !reflect.DeepEqual(s1, s2) {
		t.Fatal("the same seed generated different inputs")
	}
	u3, s3 := draw(43)
	if reflect.DeepEqual(u1, u3) || reflect.DeepEqual(s1, s3) {
		t.Fatal("different seeds generated the same inputs")
	}

	names := make(map[string]bool)
	for _, u := range u1 {
		if names[u.Name] {
			t.Errorf("user %s generated twice", u.Name)
		}
		names[u.Name] = true
	}
	probes := 0
	seen := make(map[int]bool)
	for i, a := range s1 {
		if a.At < 0 || a.At >= 2*time.Second || (i > 0 && a.At < s1[i-1].At) {
			t.Errorf("arrival %d at %v: outside the window or out of order", i, a.At)
		}
		if a.Probe {
			probes++
		}
		if a.Probe != (a.Payload == nil) {
			t.Errorf("arrival %d: probe=%v with payload %d bytes", i, a.Probe, len(a.Payload))
		}
		seen[a.User] = true
	}
	if probes != 20 || len(seen) != 16 {
		t.Errorf("%d probes of 40 over %d users, want 20 over all 16", probes, len(seen))
	}
}

// TestBenchmarkJSON checks BENCHMARK.json names exactly the gated workloads
// and the metrics this program reports.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var spec struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var wls []string
	for _, w := range spec.Workloads {
		wls = append(wls, w.Name)
	}
	var want []string
	for k, w := range workloads {
		if w.gated {
			want = append(want, k)
		}
	}
	sort.Strings(wls)
	sort.Strings(want)
	if !reflect.DeepEqual(wls, want) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", wls, want)
	}
	var e2e, layers []named
	for _, u := range endToEndUnits {
		e2e = append(e2e, named{u.name, u.unit})
	}
	for _, u := range perLayerUnits() {
		layers = append(layers, named{u.name, u.unit})
	}
	if !reflect.DeepEqual(spec.EndToEnd, e2e) {
		t.Errorf("BENCHMARK.json end_to_end %v, program reports %v", spec.EndToEnd, e2e)
	}
	if !reflect.DeepEqual(spec.PerLayer, layers) {
		t.Errorf("BENCHMARK.json per_layer %v, program reports %v", spec.PerLayer, layers)
	}
}
