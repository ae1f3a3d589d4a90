package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	"topk/internal/dataset"
	"topk/internal/ranking"
)

// nConns is the closed loop's connection count: callers wait for each
// reply, and the reference machine has two cores.
const nConns = 2

// opKind is one request type of the op stream.
type opKind uint8

const (
	kSearch opKind = iota // single-query /search
	kBatch                // 16-query /search batch at one θ
	kKNN                  // /knn
	kInsert
	kUpdate
	kDelete
	kCheckpoint // POST /checkpoint
)

// class groups op kinds for latency reporting.
type class int

const (
	cSearch class = iota
	cBatch
	cKNN
	cMutate
	cCheckpoint
	nClasses
)

var classNames = [nClasses]string{"search", "batch", "knn", "mutate", "checkpoint"}

func (k opKind) class() class {
	switch k {
	case kSearch:
		return cSearch
	case kBatch:
		return cBatch
	case kKNN:
		return cKNN
	case kCheckpoint:
		return cCheckpoint
	}
	return cMutate
}

func (k opKind) path() string {
	switch k {
	case kSearch, kBatch:
		return "/search"
	case kKNN:
		return "/knn"
	case kInsert:
		return "/insert"
	case kUpdate:
		return "/update"
	case kDelete:
		return "/delete"
	}
	return "/checkpoint"
}

// op is one request of a stream. Read requests carry their encoded body;
// update and delete targets are resolved when the op runs, from the
// connection's own live ids (pick indexes into them), because insert ids are
// assigned by the server.
type op struct {
	kind    opKind
	queries []ranking.Ranking // one for search and knn, batchSize for batch
	theta   float64
	n       int             // knn neighbour count
	rk      ranking.Ranking // insert and update payload
	pick    uint64
	body    []byte
	check   bool // compare the answer with the oracle
}

// Wire shapes of the requests; they mirror internal/server's JSON.
type searchReq struct {
	Query   ranking.Ranking   `json:"query,omitempty"`
	Queries []ranking.Ranking `json:"queries,omitempty"`
	Theta   float64           `json:"theta"`
}

type knnReq struct {
	Query ranking.Ranking `json:"query"`
	N     int             `json:"n"`
}

type mutateReq struct {
	ID      *ranking.ID     `json:"id,omitempty"`
	Ranking ranking.Ranking `json:"ranking,omitempty"`
}

// readBody encodes a read op's request.
func (o *op) readBody() []byte {
	var v any
	switch o.kind {
	case kSearch:
		v = searchReq{Query: o.queries[0], Theta: o.theta}
	case kBatch:
		v = searchReq{Queries: o.queries, Theta: o.theta}
	case kKNN:
		v = knnReq{Query: o.queries[0], N: o.n}
	default:
		return nil
	}
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // rankings and floats always encode
	}
	return b
}

// mutationBody encodes a mutation against a resolved id.
func (o *op) mutationBody(id ranking.ID) []byte {
	var v mutateReq
	switch o.kind {
	case kInsert:
		v.Ranking = o.rk
	case kUpdate:
		v.ID, v.Ranking = &id, o.rk
	case kDelete:
		v.ID = &id
	}
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// phase is a set of op streams driven by the closed loop. Shared ops go to
// whichever connection is free; perConn ops run only on their connection
// (mutation streams, whose ids each connection owns).
type phase struct {
	shared  []*op
	perConn [nConns][]*op
}

func (p *phase) len() int {
	n := len(p.shared)
	for _, s := range p.perConn {
		n += len(s)
	}
	return n
}

// plan is everything one run sends, generated from the seed alone.
type plan struct {
	data    []ranking.Ranking
	dataCfg dataset.Config
	// prelude inserts run once, untimed, before the timed restarts
	// (write-durable: they are left in the WAL for recovery to replay).
	prelude []ranking.Ranking
	warmup  []*op // sequential and untimed, before the measured phase
	measure phase
	// The probes cover the request classes the workload's own mix lacks,
	// so every end-to-end metric is measured on every workload: preProbe
	// before the measured phase, probe after it. Phases run in order;
	// reads and mutations never share a phase, so every read sees one
	// fixed collection.
	preProbe, probe []*phase
	// final is the fixed query set checked against the oracle after the
	// run (and after the crash restart on write-durable).
	final []*op
	// checkpointEvery triggers POST /checkpoint after that many acked
	// mutations (0: never during the phases).
	checkpointEvery int
}

// workload is one traffic mix against one server configuration.
type workload struct {
	name string
	// dataset is the base collection: the preset with its own fixed seed,
	// so runs with different --seed values differ in traffic only.
	dataset func() dataset.Config
	// flags are the topkserve flags besides the addresses, -data and
	// -wal-root, which every workload gets.
	flags []string
	// opsPerSecond sizes the measured op sequence: seconds × opsPerSecond
	// ops, so a run does the same work whatever the machine's speed.
	opsPerSecond int
	// crash adds the durability check: SIGKILL after the run, restart on
	// the same WAL root, and the fixed query set must still match.
	crash bool
	gen   func(p *plan, rng *rand.Rand, nOps int)
}

const (
	batchSize   = 16
	knnN        = 10
	probeBatch  = 400  // batches in a probe
	probeKNN    = 600  // knn requests in a probe
	probeMutate = 2400 // mutations in a probe, enough for a p99 with 24 beyond it
	preludeSize = 1000
	hotPool     = 2000
	hotPoolSeed = 1
	probeSeed   = 2
	finalSearch = 60
	finalKNN    = 20
	sampleSize  = 100 // queries per phase compared with the oracle
)

var searchThetas = []float64{0.05, 0.1, 0.2, 0.3}

// serverKind is the index kind every workload's server runs (see
// genWriteDurable for why not hybrid).
const serverKind = "coarse"

var workloads = []*workload{
	// Every request distinct, working set far above the 4096-entry cache:
	// pays coarse candidate generation and Footrule validation.
	{
		name:         "search-cold",
		dataset:      func() dataset.Config { return dataset.NYTLike(50000, 10) },
		flags:        []string{"-kind", serverKind, "-maxtheta", "0.3", "-cache-entries", "4096"},
		opsPerSecond: 350,
		gen:          genSearchCold,
	},
	// Zipf(1.1) draws from 2000 requests that fit the cache: isolates HTTP,
	// JSON, admission and the result cache.
	{
		name:         "search-hot",
		dataset:      func() dataset.Config { return dataset.NYTLike(50000, 10) },
		flags:        []string{"-kind", serverKind, "-maxtheta", "0.3", "-cache-entries", "4096"},
		opsPerSecond: 14000,
		gen:          genSearchHot,
	},
	// fsync'd WAL appends, incremental checkpoints, recovery from a
	// checkpoint plus WAL, and cache invalidation by writes.
	{
		name:         "write-durable",
		dataset:      func() dataset.Config { return dataset.YagoLike(20000, 10) },
		flags:        []string{"-kind", serverKind, "-maxtheta", "0.3", "-wal-sync-every", "1", "-cache-entries", "4096"},
		opsPerSecond: 2200,
		crash:        true,
		gen:          genWriteDurable,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// makePlan generates the run's inputs: the workload's fixed base collection
// and every op stream, drawn from seed. The same seed gives the same plan.
func makePlan(w *workload, seed int64, seconds int) (*plan, error) {
	cfg := w.dataset()
	data, err := dataset.Generate(cfg)
	if err != nil {
		return nil, err
	}
	p := &plan{data: data, dataCfg: cfg}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	w.gen(p, rng, seconds*w.opsPerSecond)
	for _, ph := range p.phases() {
		for _, o := range ph.shared {
			o.body = o.readBody()
		}
		for _, s := range ph.perConn {
			for _, o := range s {
				o.body = o.readBody()
			}
		}
	}
	for _, o := range p.warmup {
		o.body = o.readBody()
	}
	for _, o := range p.final {
		o.body = o.readBody()
	}
	return p, nil
}

// phases lists every phase with requests, in run order.
func (p *plan) phases() []*phase {
	return append(append(append([]*phase(nil), p.preProbe...), &p.measure), p.probe...)
}

// querySource hands out query rankings drawn by dataset.Workload: members
// of the collection (cloned or perturbed, like the paper's held-out real
// rankings) and fresh Zipf rankings, optionally refusing repeats so that
// every request of a stream is distinct.
type querySource struct {
	member, fresh []ranking.Ranking
	nextM, nextF  int
	seen          map[string]bool
}

// freshEvery makes every fifth query of a stream fresh: fresh queries cost
// far more than member queries (a knn one expands its radius across most of
// the collection), so their count is fixed rather than drawn.
const freshEvery = 5

func newQuerySource(p *plan, rng *rand.Rand, count int, distinct bool) *querySource {
	member, err := dataset.Workload(p.data, p.dataCfg, count, 1, rng.Int63())
	if err != nil {
		panic(err) // the collection is never empty and count is positive
	}
	fresh, err := dataset.Workload(p.data, p.dataCfg, count/freshEvery+64, 0, rng.Int63())
	if err != nil {
		panic(err)
	}
	s := &querySource{member: member, fresh: fresh}
	if distinct {
		s.seen = make(map[string]bool, count)
	}
	return s
}

func (s *querySource) take(fresh bool) ranking.Ranking {
	qs, next := s.member, &s.nextM
	if fresh {
		qs, next = s.fresh, &s.nextF
	}
	for *next < len(qs) {
		q := qs[*next]
		*next++
		if s.seen == nil {
			return q
		}
		if key := q.String(); !s.seen[key] {
			s.seen[key] = true
			return q
		}
	}
	panic("perfbench: query source exhausted")
}

// queryStream is one op class's draw from a source: exactly one query in
// freshEvery is fresh.
type queryStream struct {
	src *querySource
	n   int
}

func (s *querySource) stream() *queryStream { return &queryStream{src: s} }

func (q *queryStream) get() ranking.Ranking {
	fresh := q.n%freshEvery == freshEvery-1
	q.n++
	return q.src.take(fresh)
}

// deck returns n labels in seeded random order with exact shares: label i
// appears round(n × shares[i]) times, the last label the remainder. Exact
// shares keep the mix, and so the work, the same from seed to seed.
func deck(rng *rand.Rand, n int, shares ...float64) []int {
	out := make([]int, 0, n)
	for i, s := range shares {
		c := int(math.Round(float64(n) * s))
		if i == len(shares)-1 {
			c = n - len(out)
		}
		for j := 0; j < c && len(out) < n; j++ {
			out = append(out, i)
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// thetaCycle hands out thresholds round-robin, so each op class sees every
// threshold equally often.
type thetaCycle struct {
	thetas []float64
	next   int
}

func (c *thetaCycle) get() float64 {
	t := c.thetas[c.next%len(c.thetas)]
	c.next++
	return t
}

func searchOp(q ranking.Ranking, theta float64) *op {
	return &op{kind: kSearch, queries: []ranking.Ranking{q}, theta: theta}
}

func knnOp(q ranking.Ranking) *op { return &op{kind: kKNN, queries: []ranking.Ranking{q}, n: knnN} }

func batchOp(src *queryStream, theta float64) *op {
	qs := make([]ranking.Ranking, batchSize)
	for i := range qs {
		qs[i] = src.get()
	}
	return &op{kind: kBatch, queries: qs, theta: theta}
}

// markSample flags a seeded sample of read ops, sampleSize queries in all
// (a batch counts each of its queries), for the oracle check.
func markSample(rng *rand.Rand, ops []*op) {
	budget := sampleSize
	for _, i := range rng.Perm(len(ops)) {
		if budget <= 0 {
			return
		}
		if o := ops[i]; o.kind <= kKNN {
			o.check = true
			budget -= len(o.queries)
		}
	}
}

// genSearchCold: 80% single searches over four thresholds, 10% batches of
// 16 at one θ, 10% knn; no request repeats. The probe adds mutations.
func genSearchCold(p *plan, rng *rand.Rand, nOps int) {
	src := newQuerySource(p, rng, nOps*3+nOps/10*batchSize*2, true)
	single, batch := &thetaCycle{thetas: searchThetas}, &thetaCycle{thetas: searchThetas}
	singleQ, batchQ, knnQ := src.stream(), src.stream(), src.stream()
	for _, k := range deck(rng, nOps, 0.8, 0.1, 0.1) {
		switch k {
		case 0:
			p.measure.shared = append(p.measure.shared, searchOp(singleQ.get(), single.get()))
		case 1:
			p.measure.shared = append(p.measure.shared, batchOp(batchQ, batch.get()))
		default:
			p.measure.shared = append(p.measure.shared, knnOp(knnQ.get()))
		}
	}
	markSample(rng, p.measure.shared)
	p.probe = []*phase{mutationProbe(p, probeRng())}
	p.final = finalSet(p, rng)
}

// genSearchHot: a pool of 2000 distinct requests (85% single search, 15%
// knn), warmed into the cache once, then drawn Zipf(s=1.1). The probe adds
// batches (which bypass the cache) and mutations.
//
// The pool is part of the workload, like the collection: it comes from a
// fixed seed, and the run's seed draws the request sequence. Ten pool
// entries carry about half the traffic, so a seeded pool would make a run's
// cost hinge on the answer sizes of a handful of queries (measured: 10%
// apart between two seeds, repeatably).
func genSearchHot(p *plan, rng *rand.Rand, nOps int) {
	poolRng := rand.New(rand.NewSource(hotPoolSeed))
	src := newQuerySource(p, poolRng, hotPool*2, true)
	single := &thetaCycle{thetas: searchThetas}
	singleQ, knnQ := src.stream(), src.stream()
	pool := make([]*op, hotPool)
	for i, k := range deck(poolRng, hotPool, 0.85, 0.15) {
		if k == 0 {
			pool[i] = searchOp(singleQ.get(), single.get())
		} else {
			pool[i] = knnOp(knnQ.get())
		}
	}
	p.warmup = pool
	zipf := dataset.NewZipfSampler(hotPool, 1.1, rng)
	for i := 0; i < nOps; i++ {
		o := *pool[zipf.Next()]
		p.measure.shared = append(p.measure.shared, &o)
	}
	markSample(rng, p.measure.shared)
	prng := probeRng()
	reads := batchProbe(newQuerySource(p, prng, probeBatch*batchSize+64, false), searchThetas, 0)
	markSample(rng, reads.shared)
	p.probe = []*phase{reads, mutationProbe(p, prng)}
	p.final = finalSet(p, rng)
}

// genWriteDurable: 1000 prelude inserts left in the WAL for the timed
// restart to replay; then per connection 50% single searches (θ ≤ 0.2), 20%
// inserts, 15% updates, 15% deletes, with a checkpoint every 2000 acked
// mutations. The probe adds batches and knn.
//
// The server is coarse, not hybrid: the hybrid planner routes on wall-clock
// timings, and over nine runs of this stream on a hybrid server the
// distance calls per query ranged 42–108 and knn p50 0.28–0.93 ms, which no
// bound can hold. The hybrid is measured per layer in traced runs.
func genWriteDurable(p *plan, rng *rand.Rand, nOps int) {
	src := newQuerySource(p, rng, nOps+preludeSize+64, false)
	preludeQ := src.stream()
	for i := 0; i < preludeSize; i++ {
		p.prelude = append(p.prelude, preludeQ.get())
	}
	thetas := searchThetas[:3]
	for c := 0; c < nConns; c++ {
		single := &thetaCycle{thetas: thetas}
		singleQ, writeQ := src.stream(), src.stream()
		for _, k := range deck(rng, nOps/nConns, 0.5, 0.2, 0.15, 0.15) {
			var o *op
			switch k {
			case 0:
				o = searchOp(singleQ.get(), single.get())
			case 1:
				o = &op{kind: kInsert, rk: writeQ.get()}
			case 2:
				o = &op{kind: kUpdate, rk: writeQ.get(), pick: rng.Uint64()}
			default:
				o = &op{kind: kDelete, pick: rng.Uint64()}
			}
			p.measure.perConn[c] = append(p.measure.perConn[c], o)
		}
	}
	p.checkpointEvery = 2000
	// The read probe runs before the measured phase, on the recovered
	// collection: after the stream's mutations knn cost depends on which
	// rankings the seed inserted and deleted (ten seeds: knn p50 spread 31%).
	reads := batchProbe(newQuerySource(p, probeRng(), probeBatch*batchSize+probeKNN+64, false), thetas, probeKNN)
	markSample(rng, reads.shared)
	p.preProbe = []*phase{reads}
	p.final = finalSet(p, rng)
}

// probeRng draws the probes. They come from a fixed seed: a probe only
// covers request classes its workload's mix lacks, and its few hundred
// requests would otherwise make those metrics vary with the run's seed.
func probeRng() *rand.Rand { return rand.New(rand.NewSource(probeSeed)) }

// batchProbe is probeBatch batches over the thresholds, then nKNN knn
// requests, on workloads whose mix lacks them.
func batchProbe(src *querySource, thetas []float64, nKNN int) *phase {
	batchQ, knnQ := src.stream(), src.stream()
	cycle := &thetaCycle{thetas: thetas}
	ph := &phase{}
	for i := 0; i < probeBatch; i++ {
		ph.shared = append(ph.shared, batchOp(batchQ, cycle.get()))
	}
	for i := 0; i < nKNN; i++ {
		ph.shared = append(ph.shared, knnOp(knnQ.get()))
	}
	return ph
}

// mutationProbe is probeMutate mutations split over the connections (40%
// insert, 30% update, 30% delete), on workloads whose mix has none.
func mutationProbe(p *plan, rng *rand.Rand) *phase {
	src := newQuerySource(p, rng, probeMutate, false).stream()
	ph := &phase{}
	for i, k := range deck(rng, probeMutate, 0.4, 0.3, 0.3) {
		o := &op{pick: rng.Uint64()}
		switch k {
		case 0:
			o.kind, o.rk = kInsert, src.get()
		case 1:
			o.kind, o.rk = kUpdate, src.get()
		default:
			o.kind = kDelete
		}
		ph.perConn[i%nConns] = append(ph.perConn[i%nConns], o)
	}
	return ph
}

// finalSet is the fixed query set checked against the final oracle.
func finalSet(p *plan, rng *rand.Rand) []*op {
	src := newQuerySource(p, rng, finalSearch+finalKNN, false).stream()
	var out []*op
	for i := 0; i < finalSearch; i++ {
		out = append(out, searchOp(src.get(), 0.2))
	}
	for i := 0; i < finalKNN; i++ {
		out = append(out, knnOp(src.get()))
	}
	for _, o := range out {
		o.check = true
	}
	return out
}
