package main

// layers.go turns one traced phase into the per-layer metrics, and holds
// the two rules every timing uses: the tail percentile and self time.

import (
	"math"
	"sort"
	"strings"
	"time"

	"safetypin/internal/experiments"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// tailTarget is the tail percentile every latency reports when its sample
// supports it. p99 would need 1,000 samples, more than a run collects.
const tailTarget = 0.90

// tail returns the latency at the tail percentile of h and that percentile
// as a fraction: p90, or, when fewer than ten samples lie beyond p90, the
// highest percentile that has at least ten samples beyond it. With ten
// samples or fewer no percentile qualifies; tail then returns the maximum
// and ok false.
func tail(h *experiments.Histogram) (d time.Duration, q float64, ok bool) {
	n := h.Count()
	if n <= 10 {
		return h.Max(), 1, false
	}
	q = min(tailTarget, float64(n-10)/float64(n))
	// Quantile reads the sample at 0-based rank floor(q·n); the rank of
	// the sample at q is ceil(q·n)−1, and asking for that rank + 0.5
	// keeps float rounding from moving it.
	rank := math.Ceil(q*float64(n)-1e-9) - 1
	return h.Quantile((rank + 0.5) / float64(n)), q, true
}

// selfTime returns how much of [start, end) no child interval covers:
// children are clipped to the parent, and overlapping ones count once.
func selfTime(start, end int64, children [][2]int64) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c[0], start), min(c[1], end)
		if lo < hi {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	covered := int64(0)
	curLo, curHi := int64(0), int64(-1)
	for _, c := range iv {
		if c[0] > curHi {
			if curHi > curLo {
				covered += curHi - curLo
			}
			curLo, curHi = c[0], c[1]
			continue
		}
		curHi = max(curHi, c[1])
	}
	if curHi > curLo {
		covered += curHi - curLo
	}
	return end - start - covered
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

func durMS(d time.Duration) float64 { return float64(d) / 1e6 }

// p50 is the median of a set of nanosecond values.
func p50(ns []int64) float64 {
	h := experiments.NewHistogram()
	for _, v := range ns {
		h.Record(time.Duration(v))
	}
	return durMS(h.Quantile(0.5))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// traceView indexes one phase's spans.
type traceView struct {
	spans  []span
	byName map[string][]int
	kids   map[uint64][]int
}

func newTraceView(spans []span) *traceView {
	v := &traceView{spans: spans, byName: make(map[string][]int), kids: make(map[uint64][]int)}
	for i, s := range spans {
		v.byName[s.Name] = append(v.byName[s.Name], i)
		if s.Parent != 0 {
			v.kids[s.Parent] = append(v.kids[s.Parent], i)
		}
	}
	return v
}

func (v *traceView) named(name string) []span {
	out := make([]span, 0, len(v.byName[name]))
	for _, i := range v.byName[name] {
		out = append(out, v.spans[i])
	}
	return out
}

func (v *traceView) children(s span) []span {
	out := make([]span, 0, len(v.kids[s.ID]))
	for _, i := range v.kids[s.ID] {
		out = append(out, v.spans[i])
	}
	return out
}

// self returns a span's duration minus the union of its children.
func (v *traceView) self(s span) int64 {
	kids := v.children(s)
	iv := make([][2]int64, len(kids))
	for i, k := range kids {
		iv[i] = [2]int64{k.Start, k.End}
	}
	return selfTime(s.Start, s.End, iv)
}

func (v *traceView) selfP50(name string) float64 {
	var ns []int64
	for _, s := range v.named(name) {
		ns = append(ns, v.self(s))
	}
	return p50(ns)
}

// phaseInputs is what a traced phase hands the per-layer computation.
type phaseInputs struct {
	spans     []span
	tr        *tracer
	res       *results // the traced phase
	untraced  *results // the untraced phase of the same run
	meters    map[string]int64
	threshold int
}

// perLayerUnits lists every per-layer metric with its unit, in report
// order. BENCHMARK.json lists the same names.
func perLayerUnits() []struct{ name, unit string } {
	var out []struct{ name, unit string }
	add := func(name, unit string) { out = append(out, struct{ name, unit string }{name, unit}) }
	add("client.backup.self_ms", "ms")
	add("client.encrypt_to.calls_per_backup", "count")
	add("client.encrypt_to.busy_ms", "ms")
	add("client.recover.self_ms", "ms")
	for _, m := range providerMethods {
		add("provider."+m+".count", "count")
		add("provider."+m+".p50_ms", "ms")
		add("provider."+m+".busy_ms", "ms")
		add("provider."+m+".errors", "count")
	}
	add("provider.relay_recover.self_ms", "ms")
	add("epoch.count", "count")
	add("epoch.insertions_per_epoch", "count")
	add("epoch.duration_ms", "ms")
	add("epoch.audit_phase_ms", "ms")
	add("epoch.commit_gap_ms", "ms")
	add("epoch.commit_phase_ms", "ms")
	add("hsm.audit.busy_ms_per_epoch", "ms")
	add("hsm.audit.max_ms", "ms")
	add("hsm.commit.busy_ms_per_epoch", "ms")
	add("hsm.commit.max_ms", "ms")
	add("hsm.recover.count", "count")
	add("hsm.recover.p50_ms", "ms")
	add("hsm.recover.busy_ms", "ms")
	add("hsm.recover.errors", "count")
	add("hsm.recover.not_in_log", "count")
	add("hsm.recover.useful_ratio", "ratio")
	add("hsm.recover.slowest_needed_ms", "ms")
	add("securestore.get.per_recovery", "count")
	add("securestore.put.per_recovery", "count")
	add("securestore.put.busy_ms", "ms")
	for _, k := range recordKinds {
		add("storage.append."+k+".count", "count")
		add("storage.append."+k+".bytes", "B")
		add("storage.append."+k+".busy_ms", "ms")
	}
	add("storage.sync.count", "count")
	add("storage.sync.p50_ms", "ms")
	add("storage.sync.p99_ms", "ms")
	add("storage.snapshot.count", "count")
	add("storage.snapshot.busy_ms", "ms")
	add("storage.syncs_per_op", "count")
	for _, op := range meterOps {
		add("meter."+string(op)+".per_recovery", "count")
	}
	add("simtime.solokey_recover_s", "s")
	add("gen.lag_p99_ms", "ms")
	add("trace.overhead_pct", "%")
	add("trace.recover_accounted_pct", "%")
	return out
}

// perLayer computes every per-layer metric of a traced phase. A metric of a
// layer the workload leaves idle reads 0.
func perLayer(in phaseInputs) map[string]metric {
	v := newTraceView(in.spans)
	units := make(map[string]string)
	for _, u := range perLayerUnits() {
		units[u.name] = u.unit
	}
	out := make(map[string]metric, len(units))
	set := func(name string, value float64) {
		unit, ok := units[name]
		if !ok {
			panic("spbench: unlisted per-layer metric " + name)
		}
		out[name] = metric{Value: value, Unit: unit}
	}

	backups := v.named("backup")
	recovers := v.named("recover")
	nRec := float64(len(recovers))

	// Client.
	set("client.backup.self_ms", v.selfP50("backup"))
	set("client.encrypt_to.calls_per_backup", ratio(float64(in.tr.encrypt.n.Load()), float64(len(backups))))
	set("client.encrypt_to.busy_ms", in.tr.encrypt.busyMS())
	set("client.recover.self_ms", v.selfP50("recover"))

	// Provider, one group per client.Provider method.
	for _, m := range providerMethods {
		calls := v.named("provider." + m)
		var durs []int64
		busy, errs := int64(0), 0
		for _, s := range calls {
			durs = append(durs, s.dur())
			busy += s.dur()
			if s.Err != "" {
				errs++
			}
		}
		set("provider."+m+".count", float64(len(calls)))
		set("provider."+m+".p50_ms", p50(durs))
		set("provider."+m+".busy_ms", ms(busy))
		set("provider."+m+".errors", float64(errs))
	}
	set("provider.relay_recover.self_ms", v.selfP50("provider.relay_recover"))

	// Epochs: the calls of each epoch grouped under its span.
	epochs := v.named("epoch")
	var dur, audit, gap, commit, auditMax, commitMax []int64
	entries, auditBusy, commitBusy := 0, int64(0), int64(0)
	for _, e := range epochs {
		entries += e.Entries
		firstCommit, lastAudit := int64(-1), e.Start
		perAudit := make(map[int]int64)
		perCommit := make(map[int]int64)
		for _, c := range v.children(e) {
			switch c.Name {
			case "hsm.choose", "hsm.audit":
				perAudit[c.HSM] += c.dur()
				auditBusy += c.dur()
				if c.Name == "hsm.audit" {
					lastAudit = max(lastAudit, c.End)
				}
			case "hsm.commit":
				perCommit[c.HSM] += c.dur()
				commitBusy += c.dur()
				if firstCommit < 0 || c.Start < firstCommit {
					firstCommit = c.Start
				}
			}
		}
		dur = append(dur, e.dur())
		audit = append(audit, lastAudit-e.Start)
		if firstCommit >= 0 {
			gap = append(gap, firstCommit-lastAudit)
			commit = append(commit, e.End-firstCommit)
		}
		auditMax = append(auditMax, maxOf(perAudit))
		commitMax = append(commitMax, maxOf(perCommit))
	}
	nEp := float64(len(epochs))
	set("epoch.count", nEp)
	set("epoch.insertions_per_epoch", ratio(float64(entries), nEp))
	set("epoch.duration_ms", p50(dur))
	set("epoch.audit_phase_ms", p50(audit))
	set("epoch.commit_gap_ms", p50(gap))
	set("epoch.commit_phase_ms", p50(commit))
	set("hsm.audit.busy_ms_per_epoch", ratio(ms(auditBusy), nEp))
	set("hsm.audit.max_ms", p50(auditMax))
	set("hsm.commit.busy_ms_per_epoch", ratio(ms(commitBusy), nEp))
	set("hsm.commit.max_ms", p50(commitMax))

	// HSM share work.
	shares := v.named("hsm.recover")
	var shareDurs []int64
	busy, errs, notInLog := int64(0), 0, 0
	for _, s := range shares {
		shareDurs = append(shareDurs, s.dur())
		busy += s.dur()
		if s.Err != "" {
			errs++
			if strings.Contains(s.Err, "recovery attempt not in log") {
				notInLog++
			}
		}
	}
	set("hsm.recover.count", float64(len(shares)))
	set("hsm.recover.p50_ms", p50(shareDurs))
	set("hsm.recover.busy_ms", ms(busy))
	set("hsm.recover.errors", float64(errs))
	set("hsm.recover.not_in_log", float64(notInLog))
	set("hsm.recover.useful_ratio", ratio(float64(len(shares)-errs), float64(len(shares))))

	// Per recovery: how long until its slowest needed HSM answered, and the
	// modeled SoloKey critical path.
	var slowest, solo []int64
	for _, r := range recovers {
		first, last := int64(-1), int64(-1)
		var costs []float64
		var wait span
		for _, c := range v.children(r) {
			switch c.Name {
			case "provider.wait_for_commit":
				wait = c
			case "provider.relay_recover":
				if first < 0 || c.Start < first {
					first = c.Start
				}
				for _, h := range v.children(c) {
					last = max(last, h.End)
					if h.Err == "" {
						costs = append(costs, h.SoloKeyS)
					}
				}
			}
		}
		if first >= 0 && last >= first {
			slowest = append(slowest, last-first)
		}
		if e, ok := epochOf(epochs, wait); ok && len(costs) >= in.threshold && in.threshold > 0 {
			sort.Float64s(costs)
			s := epochCriticalCost(v, e) + costs[in.threshold-1]
			solo = append(solo, int64(s*1e9))
		}
	}
	slowestP50 := p50(slowest)
	set("hsm.recover.slowest_needed_ms", slowestP50)
	set("simtime.solokey_recover_s", p50(solo)/1e3)

	// Secure store and journal.
	set("securestore.get.per_recovery", ratio(float64(in.tr.oracleGet.n.Load()), nRec))
	set("securestore.put.per_recovery", ratio(float64(in.tr.oraclePut.n.Load()), nRec))
	set("securestore.put.busy_ms", in.tr.oraclePut.busyMS())
	for i, k := range recordKinds {
		c := &in.tr.appends[i]
		set("storage.append."+k+".count", float64(c.n.Load()))
		set("storage.append."+k+".bytes", float64(c.bytes.Load()))
		set("storage.append."+k+".busy_ms", c.busyMS())
	}
	in.tr.mu.Lock()
	syncs := in.tr.syncs.Count()
	set("storage.sync.count", float64(syncs))
	set("storage.sync.p50_ms", durMS(in.tr.syncs.Quantile(0.5)))
	set("storage.sync.p99_ms", durMS(in.tr.syncs.Quantile(0.99)))
	in.tr.mu.Unlock()
	set("storage.snapshot.count", float64(in.tr.snapshots.n.Load()))
	set("storage.snapshot.busy_ms", in.tr.snapshots.busyMS())
	set("storage.syncs_per_op", ratio(float64(syncs), float64(in.res.ops)))

	// Operation counts, per recovery.
	for _, op := range meterOps {
		set("meter."+string(op)+".per_recovery", ratio(float64(in.meters[string(op)]), nRec))
	}

	// Harness validity checks.
	set("gen.lag_p99_ms", durMS(in.res.lag.Quantile(0.99)))
	// Medians, because the op's mean follows rare journal stalls more than
	// the tracing cost.
	base := durMS(in.untraced.op.Quantile(0.5))
	set("trace.overhead_pct", ratio(durMS(in.res.op.Quantile(0.5))-base, base)*100)
	recP50 := p50(spanDurs(recovers))
	set("trace.recover_accounted_pct", ratio(out["epoch.duration_ms"].Value+slowestP50+out["client.recover.self_ms"].Value, recP50)*100)
	return out
}

func spanDurs(spans []span) []int64 {
	out := make([]int64, len(spans))
	for i, s := range spans {
		out[i] = s.dur()
	}
	return out
}

func maxOf(m map[int]int64) int64 {
	var out int64
	for _, v := range m {
		out = max(out, v)
	}
	return out
}

// epochOf returns the last epoch that finished while a recovery waited for
// its commit: the epoch that committed its log insertion.
func epochOf(epochs []span, wait span) (span, bool) {
	var best span
	found := false
	for _, e := range epochs {
		if e.End >= wait.Start && e.End <= wait.End && (!found || e.End > best.End) {
			best, found = e, true
		}
	}
	return best, found
}

// epochCriticalCost is the modeled SoloKey time of an epoch's slowest HSM:
// the HSMs audit and verify in parallel on real hardware.
func epochCriticalCost(v *traceView, e span) float64 {
	per := make(map[int]float64)
	for _, c := range v.children(e) {
		per[c.HSM] += c.SoloKeyS
	}
	var out float64
	for _, s := range per {
		out = max(out, s)
	}
	return out
}
