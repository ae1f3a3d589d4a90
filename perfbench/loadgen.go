package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"topk/internal/ranking"
)

// mutation is one acked write: rk is the ranking now stored under id, nil
// after a delete.
type mutation struct {
	id ranking.ID
	rk ranking.Ranking
}

// conn is one client connection of the closed loop with the ids it owns:
// connections update and delete only their own ids (base ids of their
// parity plus what they inserted), so the final collection does not depend
// on how their requests interleave.
type conn struct {
	idx   int
	base  string
	hc    *http.Client
	owned []ranking.ID
	log   []mutation // acked mutations in ack order
}

func newConn(idx int, base string) *conn {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &conn{idx: idx, base: base, hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

func (c *conn) post(path string, body []byte, reqID string) ([]byte, int, error) {
	req, err := http.NewRequest(http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if reqID != "" {
		req.Header.Set("X-Request-ID", reqID)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, 0, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return b, resp.StatusCode, err
}

// answer is the response to an op the oracle will check.
type answer struct {
	o    *op
	body []byte
}

// checkpointResp is the part of a POST /checkpoint reply the benchmark reads.
type checkpointResp struct {
	Bytes        int64 `json:"bytes"`
	Live         int   `json:"live"`
	PagesWritten int   `json:"pagesWritten"`
	PagesReused  int   `json:"pagesReused"`
}

// phaseResult is what one phase measured.
type phaseResult struct {
	lat         [nClasses][]float64 // milliseconds, per class
	ops         int                 // completed requests
	attempted   int
	failed      int
	failures    []string // the first few failure messages
	wall        time.Duration
	cpuSeconds  float64 // server CPU time during the phase
	answers     []answer
	checkpoints []checkpointResp
	// tracedSearch and plainSearch split single-search latency by whether
	// the request was traced (traced runs only): their ratio is the
	// tracing overhead.
	tracedSearch, plainSearch []float64
}

func (r *phaseResult) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 5 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *phaseResult) merge(o *phaseResult) {
	for c := range r.lat {
		r.lat[c] = append(r.lat[c], o.lat[c]...)
	}
	r.ops += o.ops
	r.attempted += o.attempted
	r.failed += o.failed
	for _, f := range o.failures {
		if len(r.failures) < 5 {
			r.failures = append(r.failures, f)
		}
	}
	r.answers = append(r.answers, o.answers...)
	r.checkpoints = append(r.checkpoints, o.checkpoints...)
	r.tracedSearch = append(r.tracedSearch, o.tracedSearch...)
	r.plainSearch = append(r.plainSearch, o.plainSearch...)
}

// loadGen runs phases over nConns connections in a closed loop.
type loadGen struct {
	conns           [nConns]*conn
	checkpointEvery int
	acked           atomic.Int64  // acked mutations, for the checkpoint trigger
	spans           *spanRecorder // nil in untraced runs
}

func newLoadGen(base string, checkpointEvery int, spans *spanRecorder) *loadGen {
	d := &loadGen{checkpointEvery: checkpointEvery, spans: spans}
	for i := range d.conns {
		d.conns[i] = newConn(i, base)
	}
	return d
}

// setBase points every connection at a (restarted) server.
func (d *loadGen) setBase(base string) {
	for _, c := range d.conns {
		c.base = base
		c.hc.CloseIdleConnections()
	}
}

// run drives one phase to completion: each connection first works through
// its own stream, then pulls shared ops until none are left.
func (d *loadGen) run(ph *phase) *phaseResult {
	var (
		next    atomic.Int64
		wg      sync.WaitGroup
		results [nConns]*phaseResult
	)
	start := time.Now()
	for i := range d.conns {
		results[i] = &phaseResult{}
		wg.Add(1)
		go func(c *conn, r *phaseResult) {
			defer wg.Done()
			for _, o := range ph.perConn[c.idx] {
				d.do(c, o, r)
			}
			for {
				j := int(next.Add(1) - 1)
				if j >= len(ph.shared) {
					return
				}
				d.do(c, ph.shared[j], r)
			}
		}(d.conns[i], results[i])
	}
	wg.Wait()
	total := &phaseResult{wall: time.Since(start)}
	for _, r := range results {
		total.merge(r)
	}
	return total
}

// traceEvery: a traced run traces one request in traceEvery, so untraced
// requests of the same run give the tracing overhead.
const traceEvery = 8

// do sends one op and records its latency, failures and, for ops the
// oracle checks, the answer.
func (d *loadGen) do(c *conn, o *op, r *phaseResult) {
	r.attempted++
	traced := d.spans != nil && r.attempted%traceEvery == 0
	var (
		target ranking.ID
		pos    int
		body   = o.body
	)
	switch o.kind {
	case kUpdate, kDelete:
		if len(c.owned) == 0 {
			r.fail("%s: connection %d owns no live id", o.kind.path(), c.idx)
			return
		}
		pos = int(o.pick % uint64(len(c.owned)))
		target = c.owned[pos]
		body = o.mutationBody(target)
	case kInsert:
		body = o.mutationBody(0)
	}
	var (
		resp   []byte
		status int
		err    error
		lat    time.Duration
	)
	if traced {
		resp, status, err, lat = d.tracedPost(c, o, target)
	} else {
		t0 := time.Now()
		resp, status, err = c.post(o.kind.path(), body, "")
		lat = time.Since(t0)
	}
	if err != nil {
		r.fail("%s: %v", o.kind.path(), err)
		return
	}
	if status != http.StatusOK {
		r.fail("%s: status %d: %s", o.kind.path(), status, bytes.TrimSpace(resp))
		return
	}
	ms := float64(lat.Nanoseconds()) / 1e6
	r.lat[o.kind.class()] = append(r.lat[o.kind.class()], ms)
	if o.kind == kSearch && d.spans != nil {
		if traced {
			r.tracedSearch = append(r.tracedSearch, ms)
		} else {
			r.plainSearch = append(r.plainSearch, ms)
		}
	}
	r.ops++
	if o.check {
		r.answers = append(r.answers, answer{o: o, body: resp})
	}
	switch o.kind {
	case kInsert, kUpdate, kDelete:
		d.applyAck(c, o, target, pos, resp, r)
	case kCheckpoint:
		var cp checkpointResp
		if err := json.Unmarshal(resp, &cp); err != nil {
			r.fail("/checkpoint: %v", err)
			return
		}
		r.checkpoints = append(r.checkpoints, cp)
	}
}

// applyAck applies an acked mutation to the connection's model and fires
// the checkpoint trigger.
func (d *loadGen) applyAck(c *conn, o *op, target ranking.ID, pos int, resp []byte, r *phaseResult) {
	switch o.kind {
	case kInsert:
		var mr struct {
			ID ranking.ID `json:"id"`
		}
		if err := json.Unmarshal(resp, &mr); err != nil {
			r.fail("/insert: %v", err)
			return
		}
		c.owned = append(c.owned, mr.ID)
		c.log = append(c.log, mutation{id: mr.ID, rk: o.rk})
	case kUpdate:
		c.log = append(c.log, mutation{id: target, rk: o.rk})
	case kDelete:
		last := len(c.owned) - 1
		c.owned[pos] = c.owned[last]
		c.owned = c.owned[:last]
		c.log = append(c.log, mutation{id: target})
	}
	if d.checkpointEvery > 0 && d.acked.Add(1)%int64(d.checkpointEvery) == 0 {
		d.do(c, &op{kind: kCheckpoint}, r)
	}
}

// tracedPost sends an op with client-side spans: the request is encoded
// and the reply decoded inside the op's root span, and the server sees the
// span's request id as X-Request-ID.
func (d *loadGen) tracedPost(c *conn, o *op, target ranking.ID) ([]byte, int, error, time.Duration) {
	reqID := d.spans.requestID(fmt.Sprintf("c%d", c.idx))
	root := d.spans.start("client."+classNames[o.kind.class()], reqID, nil)
	enc := d.spans.start("json.encode", reqID, root)
	body := o.readBody()
	if o.kind >= kInsert && o.kind <= kDelete {
		body = o.mutationBody(target)
	}
	d.spans.end(enc)
	rt := d.spans.start("http.roundtrip", reqID, root)
	resp, status, err := c.post(o.kind.path(), body, reqID)
	d.spans.end(rt)
	if err == nil && status == http.StatusOK {
		dec := d.spans.start("json.decode", reqID, root)
		var v any
		if jerr := json.Unmarshal(resp, &v); jerr != nil {
			err = jerr
		}
		d.spans.end(dec)
	}
	d.spans.end(root)
	return resp, status, err, root.dur()
}
