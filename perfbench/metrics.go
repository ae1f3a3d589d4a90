package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef names one printed metric and its unit. The two tables below are
// the benchmark's output contract: BENCHMARK.json lists the same names and
// units (checked by TestMetricNamesMatchBenchmarkJSON).
type metricDef struct {
	name, unit string
}

// endToEnd are the untraced run's metrics, printed for every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_rps", "1/s"},
	{"cpu_us_per_op", "us"},
	{"search_p50_ms", "ms"},
	{"search_p99_ms", "ms"},
	{"batch_p50_ms", "ms"},
	{"knn_p50_ms", "ms"},
	{"mutate_p50_ms", "ms"},
	{"mutate_p99_ms", "ms"},
	{"heap_mib", "MiB"},
	{"dfc_per_query", "calls"},
	{"disk_bytes_per_user_byte", "ratio"},
}

// backendNames are the hybrid backends, each also measured alone.
var backendNames = []string{"inverted", "adaptsearch", "coarse", "blocked", "bktree"}

// perLayer are the traced run's metrics, printed for every workload.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"server.handler_us.search", "us"},
		{"server.handler_us.batch", "us"},
		{"server.handler_us.knn", "us"},
		{"server.handler_us.mutate", "us"},
		{"server.net_us", "us"},
		{"server.decode_us", "us"},
		{"server.encode_us", "us"},
		{"admit.acquire_us", "us"},
		{"admit.wait_us", "us"},
		{"admit.shed_ratio", "ratio"},
		{"qcache.hit_ratio", "ratio"},
		{"qcache.get_us", "us"},
		{"qcache.put_us", "us"},
		{"qcache.invalidations_per_mutation", "ratio"},
		{"shard.fanout_us", "us"},
		{"shard.merge_us", "us"},
		{"shard.batch_shared_ratio", "ratio"},
	}
	for _, b := range backendNames {
		defs = append(defs, metricDef{"planner.share." + b, "ratio"})
	}
	defs = append(defs,
		metricDef{"planner.mispredict_ratio", "ratio"},
		metricDef{"hybrid.overhead_ratio", "ratio"},
		metricDef{"hybrid.insert_us", "us"},
		metricDef{"hybrid.overlay_len", "count"},
		metricDef{"hybrid.rebuilds", "count"},
		metricDef{"hybrid.rebuild_s", "s"},
	)
	for _, b := range backendNames {
		defs = append(defs,
			metricDef{"backend." + b + ".search_us", "us"},
			metricDef{"backend." + b + ".dfc_per_query", "calls"},
			metricDef{"backend." + b + ".build_ms", "ms"},
			metricDef{"backend." + b + ".heap_mib", "MiB"},
		)
	}
	return append(defs,
		metricDef{"kernel.ns_per_dfc", "ns"},
		metricDef{"kernel.results_per_dfc", "ratio"},
		metricDef{"knn.search_us", "us"},
		metricDef{"knn.dfc_per_query", "calls"},
		metricDef{"batch.shared_speedup", "ratio"},
		metricDef{"wal.append_us", "us"},
		metricDef{"wal.fsync_us", "us"},
		metricDef{"wal.bytes_per_mutation", "bytes"},
		metricDef{"wal.syncs_per_mutation", "ratio"},
		metricDef{"wal.replay_ms", "ms"},
		metricDef{"persist.checkpoint_ms", "ms"},
		metricDef{"persist.pages_written_ratio", "ratio"},
		metricDef{"persist.checkpoint_bytes_per_mutation", "bytes"},
		metricDef{"persist.open_ms", "ms"},
		metricDef{"setup.parse_ms", "ms"},
		metricDef{"setup.build_ms", "ms"},
		metricDef{"trace.overhead_ratio", "ratio"},
	)
}()

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects a run's metrics by name, refusing names outside the
// table it was made for so the output cannot drift from BENCHMARK.json.
type metricSet struct {
	defs   map[string]string
	values map[string]metricValue
	// samples records how many observations a percentile metric rests on.
	samples map[string]int
}

func newMetricSet(defs []metricDef) *metricSet {
	m := &metricSet{defs: make(map[string]string), values: make(map[string]metricValue), samples: make(map[string]int)}
	for _, d := range defs {
		m.defs[d.name] = d.unit
	}
	return m
}

func (m *metricSet) set(name string, v float64) {
	unit, ok := m.defs[name]
	if !ok {
		panic("perfbench: metric " + name + " is not in the output table")
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m.values[name] = metricValue{Value: v, Unit: unit}
}

// setQuantile sets a latency metric and records its sample count.
func (m *metricSet) setQuantile(name string, xs []float64, q float64) {
	m.set(name, quantile(xs, q))
	m.samples[name] = len(xs)
}

// missing lists table entries that were never set.
func (m *metricSet) missing() []string {
	var out []string
	for name := range m.defs {
		if _, ok := m.values[name]; !ok {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// quantile is the q-quantile of xs by the nearest-rank method on a sorted
// copy; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// median of a small sample (the mean of the middle two for even sizes).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// ratio divides, defining x/0 as 0 so counters that never moved print 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func fmtSamples(name string, m *metricSet) string {
	if n, ok := m.samples[name]; ok {
		return fmt.Sprintf(" (n=%d)", n)
	}
	return ""
}
