// Command perfbench is the repository's end-to-end and per-layer benchmark.
// It starts the topkserve binary as a child process on loopback, drives one
// seeded workload from two closed-loop connections, checks answers against
// the internal/difftest linear-scan oracle, and prints the metrics named in
// BENCHMARK.json. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the run
// also records spans around calls into each layer and prints the per-layer
// metrics. Run it through run.sh, which builds both binaries first:
//
//	bash perfbench/run.sh --workload search-cold --seed 1 --seconds 20 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"topk/internal/difftest"
	"topk/internal/ranking"
)

// setupStarts is how many times a run starts the server; setup_s is the
// median.
const setupStarts = 5

func main() {
	var (
		wname   = flag.String("workload", "", "workload name (search-cold, search-hot, write-durable)")
		seed    = flag.Int64("seed", 1, "seed of every generated input")
		seconds = flag.Int("seconds", 10, "length of the measured phase: seconds × the workload's nominal ops/s requests")
		trace   = flag.Int("trace", 0, "1 = traced run: record spans and print the per-layer metrics")
		bin     = flag.String("server", ".bench_build/bin/topkserve", "topkserve binary")
		work    = flag.String("work", ".bench_build/perfbench", "scratch directory for data, WAL roots, logs and spans")
	)
	flag.Parse()
	w, err := workloadByName(*wname)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q: %v)\n", *wname, err)
		os.Exit(2)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		children.killAll()
		fmt.Fprintln(os.Stderr, "perfbench: interrupted")
		os.Exit(1)
	}()
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := run(w, *seed, *seconds, *trace == 1, *bin, *work)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, line := range out.report {
		fmt.Println(line)
	}
	if miss := out.metrics.missing(); len(miss) > 0 {
		fmt.Fprintln(os.Stderr, "perfbench: metrics never measured:", strings.Join(miss, ", "))
		os.Exit(1)
	}
	b, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{out.correct, out.attempted, out.failed, out.metrics.values})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
	if !out.correct {
		os.Exit(1)
	}
}

// runOut is one run's verdict and metrics.
type runOut struct {
	correct           bool
	attempted, failed int
	metrics           *metricSet
	report            []string
}

// e2e is what the end-to-end part of a run observed; the traced run
// derives the server-side layer metrics from it.
type e2e struct {
	w      *workload
	plan   *plan
	dir    string
	args   []string
	base   []ranking.Ranking // base collection after the prelude
	setups []float64
	// The measured phase and each probe phase run in rounds; a timing
	// metric is the median of its per-round values, so a burst of outside
	// load that slows one round does not move it.
	measuredRounds, probeRounds []*phaseResult
	measured                    *phaseResult // all measured rounds
	probe                       *phaseResult // all probe rounds and the final checkpoint
	// /stats snapshots: before the warm-up, before and after the measured
	// phase, and at the end.
	stStart, stBefore, stAfter, stEnd *statsJSON
	heapMiB                           float64
	diskBytes                         int64
	checks                            int // oracle comparisons made
	mismatches                        int
	problems                          []string
}

func (e *e2e) problem(format string, args ...any) {
	e.mismatches++
	if len(e.problems) < 8 {
		e.problems = append(e.problems, fmt.Sprintf(format, args...))
	}
}

// check compares recorded answers with the oracle over slots.
func (e *e2e) check(what string, slots []ranking.Ranking, answers []answer) {
	or := difftest.NewOracle(slots)
	bad, msgs := checkAnswers(or, answers)
	e.checks += len(answers)
	for _, m := range msgs {
		e.problem("%s: %s", what, m)
	}
	e.mismatches += bad - len(msgs)
}

func run(w *workload, seed int64, seconds int, traced bool, bin, work string) (*runOut, error) {
	p, err := makePlan(w, seed, seconds)
	if err != nil {
		return nil, err
	}
	progress("generated %d measured requests", p.measure.len())
	dir, err := os.MkdirTemp(work, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	var spans *spanRecorder
	if traced {
		spans = newSpanRecorder()
	}
	e, err := runE2E(w, p, dir, bin, spans)
	if err != nil {
		return nil, err
	}
	out := &runOut{
		attempted: e.measured.attempted + e.probe.attempted + e.checks,
		failed:    e.measured.failed + e.probe.failed + e.mismatches,
	}
	out.correct = out.failed == 0
	if traced {
		out.metrics = newMetricSet(perLayer)
		if err := layerMetrics(e, spans, out.metrics); err != nil {
			return nil, err
		}
		if err := spans.writeFile(filepath.Join(work, "spans-"+w.name+".jsonl")); err != nil {
			return nil, err
		}
	} else {
		out.metrics = newMetricSet(endToEnd)
		endToEndMetrics(e, out.metrics)
	}
	out.report = report(e, out)
	return out, nil
}

// runE2E sets the server up, drives the measured phase and the probes, and
// runs every correctness check.
func runE2E(w *workload, p *plan, dir, bin string, spans *spanRecorder) (*e2e, error) {
	dataPath := filepath.Join(dir, "data.txt")
	if err := writeData(dataPath, p.data); err != nil {
		return nil, err
	}
	walRoot := filepath.Join(dir, "wal")
	e := &e2e{w: w, plan: p, dir: dir, base: append([]ranking.Ranking(nil), p.data...)}
	e.args = append(append([]string(nil), w.flags...), "-data", dataPath, "-wal-root", walRoot)
	logPath := filepath.Join(dir, "server.log")

	var srv *serverProc
	defer func() {
		if srv != nil {
			srv.kill()
		}
	}()
	if len(p.prelude) > 0 {
		// Untimed: checkpoint the base, then leave the prelude inserts in
		// the WAL for every timed restart to replay.
		s, _, err := startServer(bin, e.args, logPath)
		if err != nil {
			return nil, err
		}
		srv = s
		c := newConn(0, s.base)
		if _, err := postOK(c, "/checkpoint", nil); err != nil {
			return nil, err
		}
		for _, rk := range p.prelude {
			b, err := postOK(c, "/insert", (&op{kind: kInsert, rk: rk}).mutationBody(0))
			if err != nil {
				return nil, err
			}
			var mr struct {
				ID ranking.ID `json:"id"`
			}
			if err := json.Unmarshal(b, &mr); err != nil {
				return nil, err
			}
			if int(mr.ID) != len(e.base) {
				return nil, fmt.Errorf("prelude insert got id %d, want %d", mr.ID, len(e.base))
			}
			e.base = append(e.base, rk)
		}
		srv = nil
		if err := s.stop(); err != nil {
			return nil, err
		}
	}
	for i := 0; i < setupStarts; i++ {
		if len(p.prelude) == 0 {
			if err := os.RemoveAll(walRoot); err != nil {
				return nil, err
			}
		}
		s, took, err := startServer(bin, e.args, logPath)
		if err != nil {
			return nil, err
		}
		e.setups = append(e.setups, took.Seconds())
		if i == setupStarts-1 {
			srv = s
			break
		}
		if err := s.stop(); err != nil {
			return nil, err
		}
	}

	progress("set up %d times, median %.3fs", len(e.setups), median(e.setups))
	d := newLoadGen(srv.base, p.checkpointEvery, spans)
	for id := range e.base {
		c := d.conns[id%nConns]
		c.owned = append(c.owned, ranking.ID(id))
	}
	conns := d.conns[:]
	for _, ph := range p.preProbe {
		rounds, err := runRounds(d, srv, ph)
		if err != nil {
			return nil, err
		}
		e.check("probe", modelSlots(e.base, conns), mergeRounds(rounds).answers)
		e.probeRounds = append(e.probeRounds, rounds...)
	}
	var err error
	if e.stStart, err = srv.stats(); err != nil {
		return nil, err
	}
	if len(p.warmup) > 0 {
		wr := d.run(&phase{shared: p.warmup})
		if wr.failed > 0 {
			return nil, fmt.Errorf("warm-up failed: %v", wr.failures)
		}
	}
	if e.stBefore, err = srv.stats(); err != nil {
		return nil, err
	}
	if e.measuredRounds, err = runRounds(d, srv, &p.measure); err != nil {
		return nil, err
	}
	e.measured = mergeRounds(e.measuredRounds)
	if e.stAfter, err = srv.stats(); err != nil {
		return nil, err
	}
	if e.heapMiB, err = srv.heapAllocMiB(); err != nil {
		return nil, err
	}
	progress("measured phase: %d requests in %.2fs", e.measured.ops, e.measured.wall.Seconds())
	e.check("measured phase", modelSlots(e.base, conns), e.measured.answers)
	progress("checked %d answers", len(e.measured.answers))

	for _, ph := range p.probe {
		rounds, err := runRounds(d, srv, ph)
		if err != nil {
			return nil, err
		}
		e.check("probe", modelSlots(e.base, conns), mergeRounds(rounds).answers)
		e.probeRounds = append(e.probeRounds, rounds...)
	}
	e.probe = mergeRounds(e.probeRounds)
	d.do(d.conns[0], &op{kind: kCheckpoint}, e.probe)
	if e.stEnd, err = srv.stats(); err != nil {
		return nil, err
	}
	if e.diskBytes, err = dirSize(walRoot); err != nil {
		return nil, err
	}

	progress("probe: %d requests", e.probe.ops)
	final := modelSlots(e.base, conns)
	e.finalCheck("after the run", d, srv, final)
	if w.crash {
		srv.kill()
		srv = nil
		s, _, err := startServer(bin, e.args, logPath)
		if err != nil {
			return nil, fmt.Errorf("restart after SIGKILL: %w", err)
		}
		srv = s
		d.setBase(s.base)
		e.finalCheck("after SIGKILL and restart", d, srv, final)
	}
	s := srv
	srv = nil
	if err := s.stop(); err != nil {
		return nil, err
	}
	return e, nil
}

// finalCheck runs the fixed query set and compares it, and the live
// count, with the oracle over the acked mutations.
func (e *e2e) finalCheck(when string, d *loadGen, srv *serverProc, slots []ranking.Ranking) {
	r := d.run(&phase{perConn: [nConns][]*op{e.plan.final}})
	if r.failed > 0 {
		e.problem("final queries %s: %d failed: %v", when, r.failed, r.failures)
	}
	e.check("final queries "+when, slots, r.answers)
	st, err := srv.stats()
	e.checks++
	switch live := difftest.NewOracle(slots).Len(); {
	case err != nil:
		e.problem("stats %s: %v", when, err)
	case st.N != live:
		e.problem("%s: server holds %d rankings, oracle %d", when, st.N, live)
	}
}

// rounds is how many rounds the measured phase and each probe phase are
// split into.
const rounds = 4

// runRounds drives a phase as consecutive rounds, recording the server's
// CPU time in each.
func runRounds(d *loadGen, srv *serverProc, ph *phase) ([]*phaseResult, error) {
	var out []*phaseResult
	for i := 0; i < rounds; i++ {
		part := &phase{shared: chunk(ph.shared, i)}
		for c := range ph.perConn {
			part.perConn[c] = chunk(ph.perConn[c], i)
		}
		if part.len() == 0 {
			continue
		}
		cpu0, err := srv.cpuSeconds()
		if err != nil {
			return nil, err
		}
		r := d.run(part)
		cpu1, err := srv.cpuSeconds()
		if err != nil {
			return nil, err
		}
		r.cpuSeconds = cpu1 - cpu0
		out = append(out, r)
	}
	return out, nil
}

// chunk is the i-th of rounds contiguous parts of ops.
func chunk(ops []*op, i int) []*op {
	return ops[len(ops)*i/rounds : len(ops)*(i+1)/rounds]
}

func mergeRounds(rs []*phaseResult) *phaseResult {
	out := &phaseResult{}
	for _, r := range rs {
		out.merge(r)
		out.wall += r.wall
		out.cpuSeconds += r.cpuSeconds
	}
	return out
}

var started = time.Now()

// progress logs a step of the run to standard error.
func progress(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: %6.2fs %s\n", time.Since(started).Seconds(), fmt.Sprintf(format, args...))
}

// postOK posts body and requires a 200.
func postOK(c *conn, path string, body []byte) ([]byte, error) {
	b, status, err := c.post(path, body, "")
	if err != nil {
		return nil, err
	}
	if status != 200 {
		return nil, fmt.Errorf("POST %s: status %d: %s", path, status, strings.TrimSpace(string(b)))
	}
	return b, nil
}

// writeData writes the collection in topkserve's -data text format.
func writeData(path string, rs []ranking.Ranking) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, r := range rs {
		w.WriteString(r.String())
		w.WriteByte('\n')
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// dirSize sums the sizes of the regular files under dir.
func dirSize(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, de fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if de.Type().IsRegular() {
			info, err := de.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// classRounds are the rounds a class's latencies come from: the measured
// phase's, or the probe's when the workload's own mix lacks the class.
func (e *e2e) classRounds(c class) []*phaseResult {
	if len(e.measured.lat[c]) > 0 {
		return e.measuredRounds
	}
	return e.probeRounds
}

// setRoundQuantile sets a latency metric to the median over rounds of the
// per-round q-quantile, with the total sample count.
func (e *e2e) setRoundQuantile(m *metricSet, name string, c class, q float64) {
	var per []float64
	n := 0
	for _, r := range e.classRounds(c) {
		if len(r.lat[c]) > 0 {
			per = append(per, quantile(r.lat[c], q))
			n += len(r.lat[c])
		}
	}
	m.set(name, median(per))
	m.samples[name] = n
}

// roundMedian is the median over the measured rounds of f.
func (e *e2e) roundMedian(f func(r *phaseResult) float64) float64 {
	var xs []float64
	for _, r := range e.measuredRounds {
		xs = append(xs, f(r))
	}
	return median(xs)
}

// queriesServed counts range and KNN queries the server answered between
// two /stats snapshots (a batch counts each of its queries).
func queriesServed(a, b *statsJSON) uint64 {
	return (b.Queries + b.KNNQueries) - (a.Queries + a.KNNQueries)
}

func endToEndMetrics(e *e2e, m *metricSet) {
	m.set("setup_s", median(e.setups))
	m.samples["setup_s"] = len(e.setups)
	m.set("throughput_rps", e.roundMedian(func(r *phaseResult) float64 { return float64(r.ops) / r.wall.Seconds() }))
	m.set("cpu_us_per_op", e.roundMedian(func(r *phaseResult) float64 { return r.cpuSeconds * 1e6 / float64(r.ops) }))
	e.setRoundQuantile(m, "search_p50_ms", cSearch, 0.5)
	e.setRoundQuantile(m, "search_p99_ms", cSearch, 0.99)
	e.setRoundQuantile(m, "batch_p50_ms", cBatch, 0.5)
	e.setRoundQuantile(m, "knn_p50_ms", cKNN, 0.5)
	e.setRoundQuantile(m, "mutate_p50_ms", cMutate, 0.5)
	e.setRoundQuantile(m, "mutate_p99_ms", cMutate, 0.99)
	m.set("heap_mib", e.heapMiB)
	// From before the warm-up, so the cache fill is counted on search-hot.
	m.set("dfc_per_query", ratio(float64(e.stAfter.DistanceCalls-e.stStart.DistanceCalls), float64(queriesServed(e.stStart, e.stAfter))))
	k := e.plan.dataCfg.K
	m.set("disk_bytes_per_user_byte", ratio(float64(e.diskBytes), float64(e.stEnd.N*k*4)))
}

// report renders the human-readable lines printed before the JSON result:
// every metric with its unit and sample count, and what explains an outlier
// run (planner routing, rebuilds, checkpoints, cache hits, failures).
func report(e *e2e, out *runOut) []string {
	lines := []string{fmt.Sprintf("# %s: %d measured requests in %.2fs (+%d probe), %d oracle checks",
		e.w.name, e.measured.ops, e.measured.wall.Seconds(), e.probe.ops, e.checks)}
	for i, r := range e.measuredRounds {
		lines = append(lines, fmt.Sprintf("#   round %d: %d requests, %.1f/s, %.1f us cpu/op, search p50 %.4f p99 %.4f ms",
			i, r.ops, float64(r.ops)/r.wall.Seconds(), r.cpuSeconds*1e6/float64(r.ops), quantile(r.lat[cSearch], 0.5), quantile(r.lat[cSearch], 0.99)))
	}
	names := make([]string, 0, len(out.metrics.values))
	for n := range out.metrics.values {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := out.metrics.values[n]
		lines = append(lines, fmt.Sprintf("#   %-40s %14.4f %s%s", n, v.Value, v.Unit, fmtSamples(n, out.metrics)))
	}
	a, b := e.stBefore, e.stAfter
	var routes []string
	for _, pb := range b.Planner {
		plans := pb.Plans
		for _, pa := range a.Planner {
			if pa.Backend == pb.Backend {
				plans -= pa.Plans
			}
		}
		routes = append(routes, fmt.Sprintf("%s=%d", pb.Backend, plans))
	}
	if len(routes) == 0 {
		routes = []string{"none (single-backend kind)"}
	}
	hits := float64(b.Cache.Hits - a.Cache.Hits)
	misses := float64(b.Cache.Misses - a.Cache.Misses)
	lines = append(lines,
		fmt.Sprintf("# explain: planner routes %s; rebuilds %d; checkpoints %d (+%d probe); cache hit ratio %.4f; failed %d/%d = %.6f",
			strings.Join(routes, " "), b.Rebuilds-a.Rebuilds, len(e.measured.checkpoints), len(e.probe.checkpoints),
			ratio(hits, hits+misses), out.failed, out.attempted, ratio(float64(out.failed), float64(out.attempted))),
	)
	for _, f := range append(append(e.measured.failures, e.probe.failures...), e.problems...) {
		lines = append(lines, "# FAILED: "+f)
	}
	return lines
}
