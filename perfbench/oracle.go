package main

import (
	"encoding/json"
	"fmt"
	"sort"

	"topk/internal/difftest"
	"topk/internal/ranking"
)

// modelSlots is the collection the server must hold: base slots with every
// connection's acked mutations applied. Connections own disjoint ids, so the
// order in which their logs are applied does not matter.
func modelSlots(base []ranking.Ranking, conns []*conn) []ranking.Ranking {
	slots := append([]ranking.Ranking(nil), base...)
	for _, c := range conns {
		for _, m := range c.log {
			for int(m.id) >= len(slots) {
				slots = append(slots, nil)
			}
			slots[m.id] = m.rk
		}
	}
	return slots
}

// wireResult is one result of a /search or /knn reply.
type wireResult struct {
	ID   ranking.ID `json:"id"`
	Dist int        `json:"dist"`
}

type wireAnswer struct {
	Results []wireResult `json:"results"`
}

type searchResp struct {
	Results []wireResult `json:"results"`
	Answers []wireAnswer `json:"answers"`
}

func toResults(ws []wireResult) []ranking.Result {
	out := make([]ranking.Result, len(ws))
	for i, w := range ws {
		out[i] = ranking.Result{ID: w.ID, Dist: w.Dist}
	}
	return out
}

// oracleKNN is the linear-scan n nearest neighbours over the oracle's live
// slots, ordered by distance, ties by id.
func oracleKNN(or *difftest.Oracle, q ranking.Ranking, n int) []ranking.Result {
	best := make([]ranking.Result, 0, n+1)
	for id, r := range or.Slots() {
		if r == nil {
			continue
		}
		res := ranking.Result{ID: ranking.ID(id), Dist: ranking.Footrule(q, r)}
		if len(best) == n && !knnLess(res, best[n-1]) {
			continue
		}
		i := sort.Search(len(best), func(i int) bool { return knnLess(res, best[i]) })
		best = append(best, ranking.Result{})
		copy(best[i+1:], best[i:])
		best[i] = res
		if len(best) > n {
			best = best[:n]
		}
	}
	return best
}

func knnLess(a, b ranking.Result) bool {
	if a.Dist != b.Dist {
		return a.Dist < b.Dist
	}
	return a.ID < b.ID
}

// checkAnswer compares a reply's ids and distances, in order, with the
// oracle's.
func checkAnswer(or *difftest.Oracle, o *op, body []byte) error {
	var resp searchResp
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("decode %s reply: %w", o.kind.path(), err)
	}
	var got, want [][]ranking.Result
	switch o.kind {
	case kSearch:
		got = [][]ranking.Result{toResults(resp.Results)}
		w, _ := or.Search(o.queries[0], o.theta) // the linear scan cannot fail
		want = [][]ranking.Result{w}
	case kBatch:
		for _, a := range resp.Answers {
			got = append(got, toResults(a.Results))
		}
		for _, q := range o.queries {
			w, _ := or.Search(q, o.theta)
			want = append(want, w)
		}
	case kKNN:
		got = [][]ranking.Result{toResults(resp.Results)}
		want = [][]ranking.Result{oracleKNN(or, o.queries[0], o.n)}
	default:
		return nil
	}
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d answers for %d queries", o.kind.path(), len(got), len(want))
	}
	for i := range got {
		if !difftest.Equal(got[i], want[i]) {
			return fmt.Errorf("%s query %s θ=%g: server %v, oracle %v",
				o.kind.path(), o.queries[i], o.theta, got[i], want[i])
		}
	}
	return nil
}

// checkAnswers checks every recorded answer, returning the mismatch count
// and the first few mismatches.
func checkAnswers(or *difftest.Oracle, answers []answer) (int, []string) {
	bad := 0
	var msgs []string
	for _, a := range answers {
		if err := checkAnswer(or, a.o, a.body); err != nil {
			bad++
			if len(msgs) < 3 {
				msgs = append(msgs, err.Error())
			}
		}
	}
	return bad, msgs
}
