package main

import (
	"math"
	"math/rand"
	"sort"
)

// zipfS skews the recurring mix: Q1 draws about 45% of requests, Q10 about 2%.
const zipfS = 1.35

// blockSize is the period of every client's sequence: each block holds each
// query in its mix proportion, shuffled by the client's generator, so the
// mix a run sends does not drift with the seed.
const blockSize = 200

// workload is one traffic mix.
type workload struct {
	name string
	why  string
	// budgetShare scales the cache budget to this share of what the full
	// budget cached (1 = the full maxson-serve budget).
	budgetShare float64
	// churn makes client 0 issue appends and online cycles at fixed marks.
	churn bool
	// mix weighs the queries the workload sends.
	mix func(d *dataset) ([]query, []float64)
}

// zipf weighs the recurring queries by rank: Q1 is rank 1.
func zipf(d *dataset, share float64) ([]query, []float64) {
	ws := make([]float64, len(d.recurring))
	var sum float64
	for i := range ws {
		ws[i] = math.Pow(float64(i+1), -zipfS)
		sum += ws[i]
	}
	for i := range ws {
		ws[i] *= share / sum
	}
	return d.recurring, ws
}

func mixRecurring(d *dataset) ([]query, []float64) { return zipf(d, 1) }

// mixAdhoc sends 30% ad-hoc projections, 10% the wildcard query and 60% the
// recurring mix. The uncached 40% still take most of the server's time;
// the shares keep the median latency inside the cluster of cheap requests,
// where it is steady, rather than on the edge between cheap and costly ones.
func mixAdhoc(d *dataset) ([]query, []float64) {
	qs, ws := zipf(d, 0.6)
	qs = append(append([]query(nil), qs...), d.wildcard)
	ws = append(ws, 0.1)
	for _, q := range d.adhoc {
		qs = append(qs, q)
		ws = append(ws, 0.3/float64(len(d.adhoc)))
	}
	return qs, ws
}

// block lists one period of w's mix: each query repeated in proportion to
// its weight, rounded by largest remainder so the block has blockSize.
func (w *workload) block(d *dataset) []query {
	qs, ws := w.mix(d)
	counts := make([]int, len(qs))
	rem := make([]int, len(qs))
	left := blockSize
	for i, wt := range ws {
		counts[i] = int(wt * blockSize)
		left -= counts[i]
		rem[i] = i
	}
	sort.SliceStable(rem, func(a, b int) bool {
		fa := ws[rem[a]]*blockSize - float64(counts[rem[a]])
		fb := ws[rem[b]]*blockSize - float64(counts[rem[b]])
		return fa > fb
	})
	for i := 0; i < left; i++ {
		counts[rem[i]]++
	}
	var out []query
	for i, q := range qs {
		for j := 0; j < counts[i]; j++ {
			out = append(out, q)
		}
	}
	return out
}

// sequence is one client's query stream: the block, reshuffled each period.
type sequence struct {
	block []query
	r     *rand.Rand
	i     int
}

func newSequence(block []query, seed int64) *sequence {
	return &sequence{block: append([]query(nil), block...), r: rand.New(rand.NewSource(seed))}
}

func (s *sequence) next() query {
	if s.i == 0 {
		s.r.Shuffle(len(s.block), func(a, b int) { s.block[a], s.block[b] = s.block[b], s.block[a] })
	}
	q := s.block[s.i]
	s.i = (s.i + 1) % len(s.block)
	return q
}

var workloads = []*workload{
	{
		name:        "recurring_hot",
		why:         "Q1-Q10 Zipf(1.35) after a warm-up cycle cached every MPJP: the paper's steady state, almost no parsing; serve, planning, cache reads, dfs copies dominate. Inputs from --seed",
		budgetShare: 1,
		mix:         mixRecurring,
	},
	{
		name:        "adhoc_cold",
		why:         "ad-hoc paths no cycle saw, wildcard QW and Q1-Q10 under 1/4 of the full cache: raw and combined plans, JSON extraction dominates; bypasses the cache. Inputs from --seed",
		budgetShare: 0.25,
		mix:         mixAdhoc,
	},
	{
		name:        "daily_churn",
		why:         "recurring_hot plus part-file appends and online cycles at fixed request marks of client 0: writes invalidate cached tables until the next cycle. Inputs from --seed",
		budgetShare: 1,
		churn:       true,
		mix:         mixRecurring,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// queries lists the distinct queries w sends.
func (w *workload) queries(d *dataset) []query {
	qs, _ := w.mix(d)
	return qs
}

// churnOp is one write daily_churn's client 0 issues after completing mark
// requests of the window.
type churnOp struct {
	mark  int
	cycle bool // false: the next append of the dataset
}

// churnSchedule is the per-window write schedule of client 0: an append
// every 25 of its requests, with an online cycle in place of the third and
// the ninth.
var churnSchedule = []churnOp{
	{mark: 25}, {mark: 50}, {mark: 75, cycle: true}, {mark: 100}, {mark: 125}, {mark: 150},
	{mark: 175}, {mark: 200}, {mark: 225, cycle: true}, {mark: 250}, {mark: 275}, {mark: 300},
}

// appendsPerWindow is how many appends one window of w issues.
func appendsPerWindow(w *workload) int {
	if !w.churn {
		return 0
	}
	n := 0
	for _, op := range churnSchedule {
		if !op.cycle {
			n++
		}
	}
	return n
}
