package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"topk"
	"topk/internal/admit"
	"topk/internal/difftest"
	"topk/internal/kernel"
	"topk/internal/persist"
	"topk/internal/qcache"
	"topk/internal/ranking"
	"topk/internal/server"
	"topk/internal/wal"
)

// Sample sizes of the traced run's in-process layer calls.
const (
	layerReadOps     = 1200 // reads replayed through admission, cache and index
	layerReadBudget  = 4 * time.Second
	layerSearches    = 300 // single searches run on every backend alone
	layerBackendTime = 3 * time.Second
	layerKNN         = 150
	layerKernelQs    = 20
	layerBatches     = 20
	layerMutations   = 8000 // mutations through the hybrid, the WAL and the pager
	layerHandlerOps  = 300  // requests per class through the in-process handler
	layerCheckpoint  = 500  // mutations between in-process checkpoints
)

// layerMetrics fills the per-layer metrics of a traced run: counters the
// server exposes (/stats, /checkpoint replies) from the end-to-end phase,
// and spans around the benchmark's own calls into each layer's public API,
// made in-process on the workload's data and op stream.
func layerMetrics(e *e2e, spans *spanRecorder, m *metricSet) error {
	serverCounters(e, m)
	lr := &layerRun{e: e, sp: spans, m: m, dir: filepath.Join(e.dir, "layers")}
	if err := os.MkdirAll(lr.dir, 0o755); err != nil {
		return err
	}
	lr.collectOps()
	for _, step := range []func() error{
		lr.setup, lr.readPath, lr.knnAndKernel, lr.backends, lr.batch, lr.walLayer, lr.persistLayer, lr.handler,
	} {
		if err := step(); err != nil {
			return err
		}
	}
	plain := quantile(e.measured.plainSearch, 0.5)
	m.set("trace.overhead_ratio", ratio(quantile(e.measured.tracedSearch, 0.5), plain))
	m.set("server.net_us", plain*1e3-quantile(spans.durations("server.Handler.ServeHTTP.search"), 0.5))
	return nil
}

// serverCounters derives the layer metrics the running server exposed.
func serverCounters(e *e2e, m *metricSet) {
	a, b, end := e.stBefore, e.stAfter, e.stEnd
	admitted := float64(b.Admission.Admitted - a.Admission.Admitted)
	shed := float64((b.Admission.ShedQueueFull + b.Admission.ShedTimeout + b.Admission.ShedCanceled) -
		(a.Admission.ShedQueueFull + a.Admission.ShedTimeout + a.Admission.ShedCanceled))
	m.set("admit.shed_ratio", ratio(shed, admitted+shed))
	m.set("admit.wait_us", ratio((b.Admission.Wait.Sum-a.Admission.Wait.Sum)*1e6, float64(b.Admission.Wait.Count-a.Admission.Wait.Count)))
	hits, misses := float64(b.Cache.Hits-a.Cache.Hits), float64(b.Cache.Misses-a.Cache.Misses)
	m.set("qcache.hit_ratio", ratio(hits, hits+misses))
	muts := float64(end.Mutations - e.stStart.Mutations)
	m.set("qcache.invalidations_per_mutation", ratio(float64(end.Cache.Invalidations-e.stStart.Cache.Invalidations), muts))
	m.set("shard.fanout_us", end.Fanout.P50Micros)
	m.set("shard.merge_us", end.Merge.P50Micros)
	m.set("shard.batch_shared_ratio", ratio(float64(end.BatchShared), float64(end.BatchShared+end.BatchPerQuery)))
	appended := float64(end.WAL.Appended - e.stStart.WAL.Appended)
	m.set("wal.bytes_per_mutation", ratio(float64(end.WAL.AppendedBytes-e.stStart.WAL.AppendedBytes), appended))
	m.set("wal.syncs_per_mutation", ratio(float64(end.WAL.Syncs-e.stStart.WAL.Syncs), appended))
	var written, reused, bytes float64
	for _, cp := range append(append([]checkpointResp(nil), e.measured.checkpoints...), e.probe.checkpoints...) {
		written += float64(cp.PagesWritten)
		reused += float64(cp.PagesReused)
		bytes += float64(cp.Bytes)
	}
	m.set("persist.pages_written_ratio", ratio(written, written+reused))
	m.set("persist.checkpoint_bytes_per_mutation", ratio(bytes, muts))
}

// layerRun carries the in-process state of a traced run's layer calls.
type layerRun struct {
	e   *e2e
	sp  *spanRecorder
	m   *metricSet
	dir string

	reads    []*op             // read ops in stream order (warm-up first)
	searches []*op             // single searches among them
	batches  []*op             // batch ops of the measured phase or probe
	muts     []wal.Record      // the stream's mutations against the in-process model
	slots    []ranking.Ranking // the base collection
	mutated  []ranking.Ranking // the base collection after muts
	primary  *topk.CoarseIndex // the index every workload's server runs
	hybrid   *topk.HybridIndex // the free hybrid over the base collection
}

// collectOps gathers the stream's reads and resolves its mutations against
// an in-process model, the same way the load generator's connections do.
func (lr *layerRun) collectOps() {
	p := lr.e.plan
	lr.slots = append([]ranking.Ranking(nil), lr.e.base...)
	addReads := func(ops []*op) {
		for _, o := range ops {
			switch o.kind {
			case kSearch:
				lr.searches = append(lr.searches, o)
				lr.reads = append(lr.reads, o)
			case kKNN:
				lr.reads = append(lr.reads, o)
			case kBatch:
				lr.batches = append(lr.batches, o)
				lr.reads = append(lr.reads, o)
			}
		}
	}
	addReads(p.warmup)
	var streams [nConns][]*op
	for _, ph := range p.phases() {
		addReads(ph.shared)
		for c := range streams {
			streams[c] = append(streams[c], ph.perConn[c]...)
		}
	}
	for _, s := range streams {
		addReads(s)
	}
	var owned [nConns][]ranking.ID
	for id := range lr.slots {
		owned[id%nConns] = append(owned[id%nConns], ranking.ID(id))
	}
	longest := 0
	for _, s := range streams {
		longest = max(longest, len(s))
	}
	model := append([]ranking.Ranking(nil), lr.slots...)
	for i := 0; len(lr.muts) < layerMutations && i/nConns < longest; i++ {
		c, j := i%nConns, i/nConns
		if j >= len(streams[c]) {
			continue
		}
		o := streams[c][j]
		switch o.kind {
		case kInsert:
			id := ranking.ID(len(model))
			model = append(model, o.rk)
			owned[c] = append(owned[c], id)
			lr.muts = append(lr.muts, wal.Record{Op: wal.OpInsert, ID: id, Ranking: o.rk})
		case kUpdate, kDelete:
			pos := int(o.pick % uint64(len(owned[c])))
			id := owned[c][pos]
			if o.kind == kUpdate {
				model[id] = o.rk
				lr.muts = append(lr.muts, wal.Record{Op: wal.OpUpdate, ID: id, Ranking: o.rk})
				continue
			}
			model[id] = nil
			last := len(owned[c]) - 1
			owned[c][pos] = owned[c][last]
			owned[c] = owned[c][:last]
			lr.muts = append(lr.muts, wal.Record{Op: wal.OpDelete, ID: id})
		}
	}
	lr.mutated = model
}

// setup times loading the base collection the way the server does (parse
// the text file; or open the v3 checkpoint and replay the WAL when the
// workload restarts from one) and building the server's index kind.
func (lr *layerRun) setup() error {
	e := lr.e
	// A checkpoint of the data plus a WAL holding the records recovery
	// replays on top of it: the prelude when there is one, else the
	// stream's mutations. The recovered slots must equal the model's.
	dir := filepath.Join(lr.dir, "setup")
	recs, want := lr.muts, lr.mutated
	if len(e.plan.prelude) > 0 {
		recs, want = nil, e.base
		for i, rk := range e.plan.prelude {
			recs = append(recs, wal.Record{Op: wal.OpInsert, ID: ranking.ID(len(e.plan.data) + i), Ranking: rk})
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if _, err := persist.NewPager(dir, nil, nil).WriteCheckpoint(1, e.plan.data, nil); err != nil {
		return err
	}
	l, err := wal.Open(dir, wal.WithSyncEvery(0))
	if err != nil {
		return err
	}
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			return err
		}
	}
	if err := l.Close(); err != nil {
		return err
	}
	var pc *persist.PagedCollection
	open := lr.sp.timed("persist.OpenPagedDir", "setup", nil, func() {
		pc, _, err = persist.OpenPagedDir(dir, persist.FooterPath(dir, 1), true)
	})
	if err != nil {
		return err
	}
	defer pc.Close()
	slots := append([]ranking.Ranking(nil), pc.Slots()...)
	replay := lr.sp.timed("wal.Replay", "setup", nil, func() {
		_, err = wal.Replay(dir, 0, func(r wal.Record) error {
			switch r.Op {
			case wal.OpInsert:
				slots = append(slots, r.Ranking)
			case wal.OpUpdate:
				slots[r.ID] = r.Ranking
			case wal.OpDelete:
				slots[r.ID] = nil
			}
			return nil
		})
	})
	if err != nil {
		return err
	}
	if len(slots) != len(want) {
		return fmt.Errorf("in-process recovery: %d slots, model %d", len(slots), len(want))
	}
	for i := range slots {
		if !slots[i].Equal(want[i]) {
			return fmt.Errorf("in-process recovery: slot %d is %v, model %v", i, slots[i], want[i])
		}
	}
	lr.m.set("persist.open_ms", open.dur().Seconds()*1e3)
	lr.m.set("wal.replay_ms", replay.dur().Seconds()*1e3)

	if len(e.plan.prelude) > 0 {
		lr.m.set("setup.parse_ms", (open.dur()+replay.dur()).Seconds()*1e3)
	} else {
		var parsed []ranking.Ranking
		parse := lr.sp.timed("setup.parse", "setup", nil, func() { parsed, err = parseDataFile(filepath.Join(e.dir, "data.txt")) })
		if err != nil {
			return err
		}
		if len(parsed) != len(e.plan.data) {
			return fmt.Errorf("parsed %d rankings, wrote %d", len(parsed), len(e.plan.data))
		}
		lr.m.set("setup.parse_ms", parse.dur().Seconds()*1e3)
	}

	build := lr.sp.timed("topk.NewCoarseIndexFromSlots", "setup", nil, func() {
		lr.primary, err = topk.NewCoarseIndexFromSlots(lr.slots, topk.WithAutoTune(0.3))
	})
	if err != nil {
		return err
	}
	lr.m.set("setup.build_ms", build.dur().Seconds()*1e3)
	return nil
}

func newFreeHybrid(slots []ranking.Ranking, opts ...topk.HybridOption) (*topk.HybridIndex, error) {
	return topk.NewHybridIndexFromSlots(slots, append([]topk.HybridOption{
		topk.WithHybridMaxTheta(0.3), topk.WithHybridDeltaRatio(0.25),
	}, opts...)...)
}

func parseDataFile(path string) ([]ranking.Ranking, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []ranking.Ranking
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rk, err := topk.ParseRanking(sc.Text())
		if err != nil {
			return nil, err
		}
		out = append(out, rk)
	}
	return out, sc.Err()
}

// readPath replays the stream's reads from two goroutines through an
// admission controller and a result cache configured like the server's,
// around the primary index: each op is a root span whose children are the
// layer calls.
func (lr *layerRun) readPath() error {
	ctl := admit.New(int64(2*runtime.GOMAXPROCS(0)), 8*runtime.GOMAXPROCS(0), time.Second)
	cache := qcache.New(4096)
	// The warm-up's entries are put in the cache directly, as the server
	// holds them when the measured phase starts.
	for _, o := range lr.e.plan.warmup {
		cache.Put(cacheKey(o), 0, nil)
	}
	ops := lr.measuredReads()
	if len(ops) > layerReadOps {
		ops = ops[:layerReadOps]
	}
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
	)
	deadline := time.Now().Add(layerReadBudget)
	for g := 0; g < nConns; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(ops) && time.Now().Before(deadline); i += nConns {
				if err := lr.readOp(ctl, cache, ops[i]); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if first != nil {
		return first
	}
	lr.m.setQuantile("admit.acquire_us", lr.sp.durations("admit.Controller.Acquire"), 0.5)
	lr.m.setQuantile("qcache.get_us", lr.sp.durations("qcache.Cache.Get"), 0.5)
	lr.m.setQuantile("qcache.put_us", lr.sp.durations("qcache.Cache.Put"), 0.5)
	return nil
}

func (lr *layerRun) readOp(ctl *admit.Controller, cache *qcache.Cache, o *op) error {
	reqID := lr.sp.requestID("layer")
	root := lr.sp.start("op."+classNames[o.kind.class()], reqID, nil)
	defer lr.sp.end(root)
	var (
		release func()
		err     error
	)
	lr.sp.timed("admit.Controller.Acquire", reqID, root, func() {
		release, err = ctl.Acquire(context.Background(), int64(len(o.queries)))
	})
	if err != nil {
		return err
	}
	defer release()
	if o.kind == kBatch {
		lr.sp.timed("topk.Search.batch", reqID, root, func() {
			for _, q := range o.queries {
				if _, err = lr.primary.Search(q, o.theta); err != nil {
					return
				}
			}
		})
		return err
	}
	key := cacheKey(o)
	var hit bool
	lr.sp.timed("qcache.Cache.Get", reqID, root, func() { _, hit = cache.Get(key, 0) })
	if hit {
		return nil
	}
	var res []ranking.Result
	if o.kind == kKNN {
		lr.sp.timed("topk.NearestNeighbors", reqID, root, func() { res, err = lr.primary.NearestNeighbors(o.queries[0], o.n) })
	} else {
		lr.sp.timed("topk.Search", reqID, root, func() { res, err = lr.primary.Search(o.queries[0], o.theta) })
	}
	if err != nil {
		return err
	}
	lr.sp.timed("qcache.Cache.Put", reqID, root, func() { cache.Put(key, 0, res) })
	return nil
}

// cacheKey is a single search's or knn's result-cache key.
func cacheKey(o *op) qcache.Key {
	if o.kind == kKNN {
		return qcache.Key{Collection: "layers", Kind: "knn", Query: o.queries[0].String(), N: o.n}
	}
	return qcache.Key{Collection: "layers", Kind: "search", Query: o.queries[0].String(), Theta: o.theta}
}

// measuredReads are the reads after the warm-up.
func (lr *layerRun) measuredReads() []*op { return lr.reads[len(lr.e.plan.warmup):] }

// knnAndKernel measures, single-threaded so distance calls attribute to one
// query at a time, KNN cost and the useful share of validation work, then
// times the batched Footrule kernel over the whole collection.
func (lr *layerRun) knnAndKernel() error {
	var knnUs []float64
	var knnCalls, knnN uint64
	for _, o := range lr.reads {
		if o.kind != kKNN || knnN >= layerKNN {
			continue
		}
		before := lr.primary.DistanceCalls()
		var err error
		s := lr.sp.timed("topk.NearestNeighbors", "knn", nil, func() { _, err = lr.primary.NearestNeighbors(o.queries[0], o.n) })
		if err != nil {
			return err
		}
		knnCalls += lr.primary.DistanceCalls() - before
		knnN++
		knnUs = append(knnUs, float64(s.dur().Nanoseconds())/1e3)
	}
	lr.m.setQuantile("knn.search_us", knnUs, 0.5)
	lr.m.set("knn.dfc_per_query", ratio(float64(knnCalls), float64(knnN)))

	var results, calls uint64
	for i, o := range lr.searches {
		if i >= layerSearches {
			break
		}
		before := lr.primary.DistanceCalls()
		res, err := lr.primary.Search(o.queries[0], o.theta)
		if err != nil {
			return err
		}
		calls += lr.primary.DistanceCalls() - before
		results += uint64(len(res))
	}
	lr.m.set("kernel.results_per_dfc", ratio(float64(results), float64(calls)))

	var live []ranking.Ranking
	for _, r := range lr.slots {
		if r != nil {
			live = append(live, r)
		}
	}
	st := kernel.NewStore(live)
	ids := make([]ranking.ID, len(live))
	for i := range ids {
		ids[i] = ranking.ID(i)
	}
	out := make([]int, 0, len(ids))
	var ns, evals float64
	for i, o := range lr.searches {
		if i >= layerKernelQs {
			break
		}
		s := lr.sp.timed("kernel.FootruleMany", "kernel", nil, func() { out = kernel.FootruleMany(o.queries[0], st, ids, out[:0]) })
		ns += float64(s.dur().Nanoseconds())
		evals += float64(len(ids))
	}
	lr.m.set("kernel.ns_per_dfc", ratio(ns, evals))
	return nil
}

// backends builds each hybrid backend alone and the free hybrid over the
// base collection and runs the same single searches on each; then applies
// the stream's mutations to the free hybrid.
func (lr *layerRun) backends() error {
	qs := lr.searches
	if len(qs) > layerSearches {
		qs = qs[:layerSearches]
	}
	best := 0.0
	for _, name := range backendNames {
		var (
			h   *topk.HybridIndex
			err error
		)
		heap, build := heapDelta(func() {
			lr.sp.timed("topk.NewHybridIndexFromSlots."+name, "backend", nil, func() {
				h, err = newFreeHybrid(lr.slots, topk.WithHybridBackends(name))
			})
		})
		if err != nil {
			return err
		}
		total, times, dfc, n, err := timeSearches(lr.sp, "backend."+name, h, qs, layerBackendTime)
		if err != nil {
			return err
		}
		runtime.KeepAlive(h)
		lr.m.set("backend."+name+".build_ms", build.Seconds()*1e3)
		lr.m.set("backend."+name+".heap_mib", heap)
		lr.m.setQuantile("backend."+name+".search_us", times, 0.5)
		lr.m.set("backend."+name+".dfc_per_query", ratio(float64(dfc), float64(n)))
		// Per query, since a slow backend may stop early.
		if perQ := total.Seconds() / float64(n); best == 0 || perQ < best {
			best = perQ
		}
	}

	var err error
	if lr.hybrid, err = newFreeHybrid(lr.slots); err != nil {
		return err
	}
	total, _, _, n, err := timeSearches(lr.sp, "hybrid", lr.hybrid, qs, layerBackendTime)
	if err != nil {
		return err
	}
	lr.m.set("hybrid.overhead_ratio", ratio(total.Seconds()/float64(n), best))
	shares := make(map[string]float64)
	var plans, obs, mis float64
	for _, ps := range lr.hybrid.PlanStats() {
		shares[ps.Backend] = float64(ps.Plans)
		plans += float64(ps.Plans)
		obs += float64(ps.Observations)
		mis += float64(ps.Mispredicts)
	}
	for _, name := range backendNames {
		lr.m.set("planner.share."+name, ratio(shares[name], plans))
	}
	lr.m.set("planner.mispredict_ratio", ratio(mis, obs))

	var ins []float64
	for _, r := range lr.muts {
		reqID := lr.sp.requestID("hybrid")
		var err error
		switch r.Op {
		case wal.OpInsert:
			var id ranking.ID
			s := lr.sp.timed("topk.HybridIndex.Insert", reqID, nil, func() { id, err = lr.hybrid.Insert(r.Ranking) })
			if err == nil && id != r.ID {
				err = fmt.Errorf("hybrid insert got id %d, model %d", id, r.ID)
			}
			ins = append(ins, float64(s.dur().Nanoseconds())/1e3)
		case wal.OpUpdate:
			lr.sp.timed("topk.HybridIndex.Update", reqID, nil, func() { err = lr.hybrid.Update(r.ID, r.Ranking) })
		case wal.OpDelete:
			lr.sp.timed("topk.HybridIndex.Delete", reqID, nil, func() { err = lr.hybrid.Delete(r.ID) })
		}
		if err != nil {
			return fmt.Errorf("hybrid %v %d: %w", r.Op, r.ID, err)
		}
	}
	// A background epoch rebuild may still be in flight: let the count
	// settle before reading it.
	for last, since := lr.hybrid.Rebuilds(), time.Now(); time.Since(since) < time.Second; time.Sleep(50 * time.Millisecond) {
		if n := lr.hybrid.Rebuilds(); n != last {
			last, since = n, time.Now()
		}
	}
	lr.m.setQuantile("hybrid.insert_us", ins, 0.5)
	lr.m.set("hybrid.overlay_len", float64(lr.hybrid.DeltaLen()))
	rs := lr.hybrid.RebuildStats()
	lr.m.set("hybrid.rebuilds", float64(rs.Rebuilds))
	lr.m.set("hybrid.rebuild_s", float64(rs.TotalNanos)/1e9)
	return nil
}

// timeSearches runs single searches through SearchTraced until they run
// out or the budget is spent, returning total time, per-query µs, distance
// calls and the count run.
func timeSearches(sp *spanRecorder, name string, h *topk.HybridIndex, qs []*op, budget time.Duration) (time.Duration, []float64, uint64, int, error) {
	var (
		total time.Duration
		times []float64
		dfc   uint64
		n     int
	)
	for _, o := range qs {
		if total > budget {
			break
		}
		var (
			calls uint64
			err   error
		)
		s := sp.timed("topk.HybridIndex.SearchTraced."+name, name, nil, func() {
			_, _, calls, err = h.SearchTraced(o.queries[0], o.theta)
		})
		if err != nil {
			return 0, nil, 0, 0, err
		}
		total += s.dur()
		times = append(times, float64(s.dur().Nanoseconds())/1e3)
		dfc += calls
		n++
	}
	if n == 0 {
		return 0, nil, 0, 0, fmt.Errorf("%s: no searches to time", name)
	}
	return total, times, dfc, n, nil
}

// heapDelta runs fn and returns the live heap it left behind (after forced
// GCs) in MiB, and fn's wall time. Two collections in a row also empty the
// sync.Pool victim caches of indexes built earlier.
func heapDelta(fn func()) (float64, time.Duration) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	fn()
	took := time.Since(t0)
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	return (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / (1 << 20), took
}

// batch compares a per-query loop with the inverted index's shared batch
// path on the stream's batches, checking both give the same answers.
func (lr *layerRun) batch() error {
	ii, err := topk.NewInvertedIndexFromSlots(lr.slots)
	if err != nil {
		return err
	}
	var loop, shared time.Duration
	for i, o := range lr.batches {
		if i >= layerBatches {
			break
		}
		per := make([][]ranking.Result, len(o.queries))
		s := lr.sp.timed("topk.InvertedIndex.Search.loop", "batch", nil, func() {
			for j, q := range o.queries {
				if per[j], err = ii.Search(q, o.theta); err != nil {
					return
				}
			}
		})
		if err != nil {
			return err
		}
		loop += s.dur()
		var got [][]ranking.Result
		s = lr.sp.timed("topk.InvertedIndex.SearchBatch", "batch", nil, func() { got, err = ii.SearchBatch(o.queries, o.theta) })
		if err != nil {
			return err
		}
		shared += s.dur()
		for j := range per {
			if !difftest.Equal(per[j], got[j]) {
				return fmt.Errorf("SearchBatch answer %d differs from Search", j)
			}
		}
	}
	lr.m.set("batch.shared_speedup", ratio(loop.Seconds(), shared.Seconds()))
	return nil
}

// walLayer appends the stream's mutations to a fresh log, timing the
// append and the fsync that acks each separately (the server's
// -wal-sync-every 1 policy).
func (lr *layerRun) walLayer() error {
	dir := filepath.Join(lr.dir, "wal")
	var (
		l   *wal.Log
		err error
	)
	lr.sp.timed("wal.Open", "wal", nil, func() { l, err = wal.Open(dir, wal.WithSyncEvery(0)) })
	if err != nil {
		return err
	}
	for _, r := range lr.muts {
		reqID := lr.sp.requestID("wal")
		root := lr.sp.start("op.wal", reqID, nil)
		lr.sp.timed("wal.Log.Append", reqID, root, func() { err = l.Append(r) })
		if err == nil {
			lr.sp.timed("wal.Log.Sync", reqID, root, func() { err = l.Sync() })
		}
		lr.sp.end(root)
		if err != nil {
			l.Close()
			return err
		}
	}
	if err := l.Close(); err != nil {
		return err
	}
	lr.m.setQuantile("wal.append_us", lr.sp.durations("wal.Log.Append"), 0.5)
	lr.m.setQuantile("wal.fsync_us", lr.sp.durations("wal.Log.Sync"), 0.5)
	return nil
}

// persistLayer writes a full checkpoint of the base collection, then
// incremental ones as the stream's mutations dirty it.
func (lr *layerRun) persistLayer() error {
	dir := filepath.Join(lr.dir, "pager")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	slots := append([]ranking.Ranking(nil), lr.slots...)
	pager := persist.NewPager(dir, nil, nil)
	tr := persist.NewSlotTracker()
	seq := uint64(1)
	var err error
	write := func(dirty *persist.DirtySet) error {
		lr.sp.timed("persist.Pager.WriteCheckpoint", "persist", nil, func() { _, err = pager.WriteCheckpoint(seq, slots, dirty) })
		seq++
		return err
	}
	if err := write(nil); err != nil {
		return err
	}
	for i, r := range lr.muts {
		switch r.Op {
		case wal.OpInsert:
			slots = append(slots, r.Ranking)
			tr.MarkInsert(int(r.ID))
		case wal.OpUpdate:
			slots[r.ID] = r.Ranking
			tr.MarkUpdate(int(r.ID))
		case wal.OpDelete:
			slots[r.ID] = nil
			tr.MarkDelete(int(r.ID))
		}
		if (i+1)%layerCheckpoint == 0 || i == len(lr.muts)-1 {
			if err := write(tr.Capture()); err != nil {
				return err
			}
		}
	}
	all := lr.sp.durations("persist.Pager.WriteCheckpoint")
	incr := all[1:] // the first is the full write
	if len(incr) == 0 {
		incr = all
	}
	lr.m.setQuantile("persist.checkpoint_ms", msFromUs(incr), 0.5)
	return nil
}

func msFromUs(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x / 1e3
	}
	return out
}

// wire shapes of the replies, for the encode timing.
type searchReply struct {
	TookMicros int64 `json:"tookMicros"`
	Count      int   `json:"count,omitempty"`
	Results    []struct {
		ID       ranking.ID `json:"id"`
		Dist     int        `json:"dist"`
		NormDist float64    `json:"normDist"`
	} `json:"results,omitempty"`
	Answers []struct {
		Count   int `json:"count"`
		Results []struct {
			ID       ranking.ID `json:"id"`
			Dist     int        `json:"dist"`
			NormDist float64    `json:"normDist"`
		} `json:"results"`
	} `json:"answers,omitempty"`
}

// handler builds the workload's server in-process from the same data and
// flags and sends a sample of each request class straight to
// server.New(...).Handler().ServeHTTP, without the network; it also times
// encoding/json on the wire shapes.
func (lr *layerRun) handler() error {
	e := lr.e
	logf, err := os.Create(filepath.Join(lr.dir, "server.log"))
	if err != nil {
		return err
	}
	defer logf.Close()
	cfg := server.Config{
		Addr:         "127.0.0.1:0",
		DataPath:     filepath.Join(e.dir, "data.txt"),
		Kind:         serverKind,
		MaxTheta:     0.3,
		WALRoot:      filepath.Join(lr.dir, "server-wal"),
		WALSyncEvery: 1,
		MaxQueueWait: time.Second,
		CacheEntries: 4096,
		Mmap:         true,
		Log:          logf,
	}
	srv, err := server.New(cfg)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Run(ctx) }()
	defer func() {
		cancel()
		<-done
	}()
	h := srv.Handler()
	for deadline := time.Now().Add(60 * time.Second); ; {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
		if rec.Code == http.StatusOK {
			break
		}
		select {
		case err := <-done:
			return fmt.Errorf("in-process server: %v", err)
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("in-process server not ready after 60s")
		}
	}
	serve := func(class, path string, body []byte) ([]byte, error) {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(string(body)))
		lr.sp.timed("server.Handler.ServeHTTP."+class, lr.sp.requestID("handler"), nil, func() { h.ServeHTTP(rec, req) })
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("in-process %s: status %d: %s", path, rec.Code, strings.TrimSpace(rec.Body.String()))
		}
		return io.ReadAll(rec.Body)
	}
	// The sample: up to layerHandlerOps reads per class after the warm-up.
	// Those the warm-up would have cached are sent once, untimed, first.
	warm := make(map[string]bool)
	for _, o := range lr.e.plan.warmup {
		warm[string(o.body)] = true
	}
	count := make(map[opKind]int)
	var sample []*op
	for _, o := range lr.measuredReads() {
		if count[o.kind] < layerHandlerOps {
			count[o.kind]++
			sample = append(sample, o)
		}
	}
	for _, o := range sample {
		if body := string(o.body); warm[body] {
			delete(warm, body)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, o.kind.path(), strings.NewReader(body)))
			if rec.Code != http.StatusOK {
				return fmt.Errorf("in-process warm-up %s: status %d", o.kind.path(), rec.Code)
			}
		}
	}
	var decUs, encUs []float64
	for _, o := range sample {
		resp, err := serve(classNames[o.kind.class()], o.kind.path(), o.body)
		if err != nil {
			return err
		}
		var req searchReq
		var kreq knnReq
		d := lr.sp.timed("json.Unmarshal.request", "json", nil, func() {
			if o.kind == kKNN {
				err = json.Unmarshal(o.body, &kreq)
			} else {
				err = json.Unmarshal(o.body, &req)
			}
		})
		if err != nil {
			return err
		}
		decUs = append(decUs, float64(d.dur().Nanoseconds())/1e3)
		var reply searchReply
		if err := json.Unmarshal(resp, &reply); err != nil {
			return err
		}
		en := lr.sp.timed("json.Marshal.response", "json", nil, func() { _, err = json.Marshal(reply) })
		if err != nil {
			return err
		}
		encUs = append(encUs, float64(en.dur().Nanoseconds())/1e3)
	}
	n := 0
	for _, r := range lr.muts {
		if n >= layerHandlerOps {
			break
		}
		o := &op{kind: kInsert, rk: r.Ranking}
		switch r.Op {
		case wal.OpUpdate:
			o.kind = kUpdate
		case wal.OpDelete:
			o.kind = kDelete
		}
		if o.kind != kInsert && int(r.ID) >= len(e.plan.data) {
			continue // the in-process server starts from the data alone
		}
		if _, err := serve("mutate", o.kind.path(), o.mutationBody(r.ID)); err != nil {
			return err
		}
		n++
	}
	for _, c := range []class{cSearch, cBatch, cKNN, cMutate} {
		lr.m.setQuantile("server.handler_us."+classNames[c], lr.sp.durations("server.Handler.ServeHTTP."+classNames[c]), 0.5)
	}
	lr.m.setQuantile("server.decode_us", decUs, 0.5)
	lr.m.setQuantile("server.encode_us", encUs, 0.5)
	return nil
}
