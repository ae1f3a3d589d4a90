package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"testing"
	"time"

	"topk/internal/difftest"
	"topk/internal/ranking"
)

// TestMetricNamesMatchBenchmarkJSON: the metric tables the benchmark prints
// from are exactly the ones BENCHMARK.json declares, names and units.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(what string, got []metricDef, want []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) {
		if len(got) != len(want) {
			t.Fatalf("%s: benchmark prints %d metrics, BENCHMARK.json lists %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s[%d]: benchmark prints %s [%s], BENCHMARK.json lists %s [%s]",
					what, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer, spec.PerLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, spec.Workloads[i].Name, w.name)
		}
	}
}

// TestMetricSetRefusesUnknownNames: a metric outside the table cannot be
// printed, and an unset one is reported missing.
func TestMetricSetRefusesUnknownNames(t *testing.T) {
	m := newMetricSet(endToEnd)
	for _, d := range endToEnd[1:] {
		m.set(d.name, 1)
	}
	if miss := m.missing(); len(miss) != 1 || miss[0] != endToEnd[0].name {
		t.Fatalf("missing = %v, want [%s]", miss, endToEnd[0].name)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("setting an undeclared metric did not panic")
		}
	}()
	m.set("no_such_metric", 1)
}

// TestSelfTimeAddsUp: a span's duration is its self time plus the union of
// its children's intervals, for hand-made overlapping children and for
// spans recorded around nested calls.
func TestSelfTimeAddsUp(t *testing.T) {
	root := &span{ID: 1, Start: 0, End: 100}
	kids := []*span{
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Start: 20, End: 50}, // overlaps the first: 10..50 covered once
		{ID: 4, Parent: 1, Start: 70, End: 80},
		{ID: 5, Parent: 1, Start: 95, End: 120}, // clipped to the parent at 100
	}
	self := selfTimes(append([]*span{root}, kids...))
	if got, want := self[1], int64(100-40-10-5); got != want {
		t.Fatalf("root self time %d, want %d", got, want)
	}
	for _, k := range kids {
		if self[k.ID] != k.End-k.Start {
			t.Errorf("leaf %d self %d, want its duration %d", k.ID, self[k.ID], k.End-k.Start)
		}
	}

	rec := newSpanRecorder()
	for i := 0; i < 20; i++ {
		id := rec.requestID("t")
		op := rec.start("op", id, nil)
		for j := 0; j < 3; j++ {
			rec.timed("child", id, op, func() { time.Sleep(50 * time.Microsecond) })
		}
		rec.end(op)
	}
	spans := rec.all()
	self = selfTimes(spans)
	var children = make(map[int64]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] += s.End - s.Start // sequential children do not overlap
		}
	}
	ops := 0
	for _, s := range spans {
		if s.Name != "op" {
			continue
		}
		ops++
		if s.End-s.Start != self[s.ID]+children[s.ID] {
			t.Errorf("op %s: duration %d != self %d + children %d", s.ReqID, s.End-s.Start, self[s.ID], children[s.ID])
		}
		if self[s.ID] < 0 {
			t.Errorf("op %s: negative self time %d", s.ReqID, self[s.ID])
		}
	}
	if ops != 20 {
		t.Fatalf("recorded %d op spans, want 20", ops)
	}
}

// TestOracleCatchesCorruptAnswer: a correct reply passes the check, and
// the same reply with one distance, one id or one result changed fails it,
// for single searches, batches and knn.
func TestOracleCatchesCorruptAnswer(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rs := difftest.RandomCollection(rng, 400, 6, 30)
	or := difftest.NewOracle(rs)
	q := rs[3]
	ops := []*op{
		searchOp(q, 0.4),
		{kind: kBatch, queries: []ranking.Ranking{rs[1], q, rs[9]}, theta: 0.4},
		knnOp(q),
	}
	for _, o := range ops {
		body := replyFor(t, or, o)
		if err := checkAnswer(or, o, body); err != nil {
			t.Fatalf("%s: correct reply rejected: %v", o.kind.path(), err)
		}
		for _, corrupt := range []func(*wireResult){
			func(r *wireResult) { r.Dist++ },
			func(r *wireResult) { r.ID += 1000 },
		} {
			bad := corruptReply(t, body, corrupt, false)
			if err := checkAnswer(or, o, bad); err == nil {
				t.Errorf("%s: corrupted reply %s passed the oracle check", o.kind.path(), bad)
			}
		}
		if err := checkAnswer(or, o, corruptReply(t, body, nil, true)); err == nil {
			t.Errorf("%s: reply with a result dropped passed the oracle check", o.kind.path())
		}
	}
}

// replyFor renders the oracle's own answer in the server's wire shape.
func replyFor(t *testing.T, or *difftest.Oracle, o *op) []byte {
	t.Helper()
	wire := func(rs []ranking.Result) []wireResult {
		out := make([]wireResult, len(rs))
		for i, r := range rs {
			out[i] = wireResult{ID: r.ID, Dist: r.Dist}
		}
		return out
	}
	var resp searchResp
	switch o.kind {
	case kSearch:
		res, _ := or.Search(o.queries[0], o.theta)
		resp.Results = wire(res)
	case kBatch:
		for _, q := range o.queries {
			res, _ := or.Search(q, o.theta)
			resp.Answers = append(resp.Answers, wireAnswer{Results: wire(res)})
		}
	case kKNN:
		resp.Results = wire(oracleKNN(or, o.queries[0], o.n))
	}
	if len(resp.Results) == 0 && len(resp.Answers) == 0 {
		t.Fatalf("%s: oracle answer is empty; pick a query with results", o.kind.path())
	}
	b, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// corruptReply changes the first result of a reply (or drops the last).
func corruptReply(t *testing.T, body []byte, corrupt func(*wireResult), drop bool) []byte {
	t.Helper()
	var resp searchResp
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	rs := &resp.Results
	if len(resp.Answers) > 0 {
		for i := range resp.Answers {
			if len(resp.Answers[i].Results) > 0 {
				rs = &resp.Answers[i].Results
				break
			}
		}
	}
	if drop {
		*rs = (*rs)[:len(*rs)-1]
	} else {
		corrupt(&(*rs)[0])
	}
	b, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestPlanReproducible: the same seed regenerates every input byte for
// byte, and another seed changes the traffic.
func TestPlanReproducible(t *testing.T) {
	for _, w := range workloads {
		a, err := makePlan(w, 11, 1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := makePlan(w, 11, 1)
		if err != nil {
			t.Fatal(err)
		}
		c, err := makePlan(w, 12, 1)
		if err != nil {
			t.Fatal(err)
		}
		fa, fb, fc := fingerprint(a), fingerprint(b), fingerprint(c)
		if !bytes.Equal(fa, fb) {
			t.Errorf("%s: two plans from seed 11 differ", w.name)
		}
		if bytes.Equal(fa, fc) {
			t.Errorf("%s: seeds 11 and 12 gave the same plan", w.name)
		}
		if a.measure.len() != w.opsPerSecond {
			t.Errorf("%s: %d measured ops for one second, want %d", w.name, a.measure.len(), w.opsPerSecond)
		}
	}
}

// fingerprint serializes everything a plan would send.
func fingerprint(p *plan) []byte {
	var buf bytes.Buffer
	for _, r := range p.data {
		buf.WriteString(r.String())
	}
	for _, r := range p.prelude {
		buf.WriteString(r.String())
	}
	put := func(ops []*op) {
		for _, o := range ops {
			buf.Write(o.body)
			buf.Write(o.mutationBody(ranking.ID(o.pick % 1000003)))
			if o.check {
				buf.WriteByte('!')
			}
		}
		buf.WriteByte('|')
	}
	put(p.warmup)
	for _, ph := range p.phases() {
		put(ph.shared)
		for _, s := range ph.perConn {
			put(s)
		}
	}
	put(p.final)
	return buf.Bytes()
}

func TestParseStatCPU(t *testing.T) {
	// pid (comm with spaces) state ppid ... utime=250 stime=50 ticks.
	line := "42 (topk serve) S 1 42 42 0 -1 4194560 100 0 0 0 250 50 0 0 20 0 8 0 100 0 0"
	got, err := parseStatCPU(line)
	if err != nil {
		t.Fatal(err)
	}
	if got != 3.0 {
		t.Fatalf("cpu seconds %v, want 3", got)
	}
}
