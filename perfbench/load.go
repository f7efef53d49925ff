package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/dfs"
	"repro/internal/obs"
	"repro/internal/serve"
)

// clients is the closed-loop client count: one connection per core of the
// 2-core machine the benchmark was sized on.
const clients = 2

// sample is one request as the client saw it.
type sample struct {
	lat     time.Duration
	status  int // 0: transport error
	wrong   bool
	wallMS  float64
	queueMS float64
}

func (s sample) ok() bool { return s.status == http.StatusOK && !s.wrong }

// opTiming is one daily_churn write, timed around the program call.
type opTiming struct {
	cycle      bool
	start, end time.Time
	report     *maxson.CycleReport
}

// windowResult is one measured window of closed-loop traffic.
type windowResult struct {
	samples []sample
	elapsed time.Duration
	ops     []opTiming
	err     error // a failed write; the window stops at it
}

// runner drives HTTP traffic against one server over one environment.
type runner struct {
	e    *env
	w    *workload
	seed int64
	url  string
	srv  *serve.Server
	tb   *tracedBackend
	tr   *tracer // nil when untraced

	// started/done count appends per table, bumped before and after each
	// AppendRows: a request in flight may see any version in between.
	started, done map[string]*atomic.Int64
	nextAppend    int // index into e.data.appends; client 0 only
	bodies        map[string][]byte
	// corruptNext makes the next 200 answer wrong before the oracle sees
	// it, so the self-check can prove the oracle flags it.
	corruptNext atomic.Bool
}

// startServer serves the environment the way cmd/maxson-serve does with its
// flag defaults. Online cycles are not timer-driven here: daily_churn issues
// them at request marks so every run does the same writes.
func startServer(e *env, w *workload, seed int64) (*runner, error) {
	r := &runner{e: e, w: w, seed: seed,
		started: map[string]*atomic.Int64{}, done: map[string]*atomic.Int64{},
		bodies: map[string][]byte{}}
	for _, t := range e.data.tables {
		r.started[t], r.done[t] = new(atomic.Int64), new(atomic.Int64)
	}
	for _, q := range e.data.all() {
		r.bodies[q.Name] = requestBody(q.SQL)
	}
	r.tb = &tracedBackend{sys: e.sys}
	r.srv = serve.New(r.tb, serve.Config{
		Workers:      4,
		QueryTimeout: 30 * time.Second,
		DrainTimeout: 10 * time.Second,
		SessionIdle:  5 * time.Minute,
		OnDrain:      e.sys.SaveState,
		Obs:          e.sys.Obs(),
		Debug:        e.sys.NewDebugServer(),
	})
	addr, err := r.srv.Start("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r.url = "http://" + addr + "/v1/query"
	return r, nil
}

func (r *runner) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	return r.srv.Shutdown(ctx)
}

// serveWindow serves one untraced window of d on e and drains the server.
func serveWindow(ctx context.Context, e *env, w *workload, seed int64, d time.Duration, idx int) (*windowResult, error) {
	r, err := startServer(e, w, seed)
	if err != nil {
		return nil, err
	}
	res := r.window(ctx, d, idx, nil)
	if err := r.stop(); err != nil {
		return nil, fmt.Errorf("drain: %w", err)
	}
	return res, res.err
}

func requestBody(sql string) []byte {
	b, _ := json.Marshal(map[string]string{"sql": sql}) // a map of strings always marshals
	return b
}

// window runs every client closed-loop for d; with tr set, spans and counter
// snapshots are recorded at each layer boundary. A daily_churn window is
// fixed work instead: it ends once client 0 has issued the whole write
// schedule, so every run does the same writes, in the same proportion to
// its reads, however fast the machine is.
func (r *runner) window(ctx context.Context, d time.Duration, idx int, tr *tracer) *windowResult {
	r.tr = tr
	r.tb.setTracer(tr)
	defer func() {
		r.tr = nil
		r.tb.setTracer(nil)
	}()
	res := &windowResult{}
	per := make([][]sample, clients)
	block := r.w.block(r.e.data)
	var writesDone atomic.Bool
	start := time.Now()
	deadline := start.Add(d)
	more := func() bool {
		if r.w.churn {
			return !writesDone.Load()
		}
		return time.Now().Before(deadline)
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			seq := newSequence(block, r.seed*1_000_003+int64(idx)*7919+int64(c))
			hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
			defer hc.CloseIdleConnections()
			next := 0
			for more() && ctx.Err() == nil {
				s := r.send(ctx, hc, seq.next())
				per[c] = append(per[c], s)
				for c == 0 && r.w.churn && next < len(churnSchedule) && len(per[c]) == churnSchedule[next].mark {
					op, err := r.churn(ctx, churnSchedule[next].cycle)
					res.ops = append(res.ops, op)
					if err != nil {
						res.err = err
						writesDone.Store(true)
						return
					}
					next++
					writesDone.Store(next == len(churnSchedule))
				}
			}
		}(c)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	for _, s := range per {
		res.samples = append(res.samples, s...)
	}
	return res
}

// send issues one request and checks its answer against the oracle.
func (r *runner) send(ctx context.Context, hc *http.Client, q query) sample {
	var s sample
	lo := int(r.done[q.Table].Load())
	body := r.bodies[q.Name]
	var req uint64
	if r.tr != nil {
		req = r.tr.newID()
		body = requestBody(q.SQL + ridMarker + strconv.FormatUint(req, 10))
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, r.url, bytes.NewReader(body))
	if err != nil {
		return s
	}
	hreq.Header.Set("Content-Type", "application/json")
	t0 := time.Now()
	resp, err := hc.Do(hreq)
	var raw []byte
	if err == nil {
		raw, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	s.lat = time.Since(t0)
	if r.tr != nil {
		r.tr.add(span{ID: req, Req: req, Name: "client.request", Start: r.tr.at(t0), End: r.tr.at(t0.Add(s.lat))})
	}
	if err != nil {
		return s
	}
	s.status = resp.StatusCode
	if s.status != http.StatusOK {
		return s
	}
	hi := int(r.started[q.Table].Load())
	var body200 struct {
		Columns []string   `json:"columns"`
		Rows    [][]string `json:"rows"`
		WallMS  float64    `json:"wall_ms"`
		QueueMS float64    `json:"queue_ms"`
	}
	if err := json.Unmarshal(raw, &body200); err != nil {
		s.wrong = true
		return s
	}
	s.wallMS, s.queueMS = body200.WallMS, body200.QueueMS
	if r.corruptNext.CompareAndSwap(true, false) {
		if len(body200.Rows) > 0 && len(body200.Rows[0]) > 0 {
			body200.Rows[0][0] += "x"
		} else {
			body200.Rows = append(body200.Rows, []string{"x"})
		}
	}
	s.wrong = !r.e.oracle.check(q.Name, lo, hi, result{Columns: body200.Columns, Rows: body200.Rows})
	return s
}

// churn issues daily_churn's next write from client 0: an append of one new
// part file to a hot table, or an online cycle — hop to midnight, run the
// cycle, hop to the next mid-day so traffic keeps feeding the collector.
func (r *runner) churn(ctx context.Context, cycle bool) (opTiming, error) {
	op := opTiming{cycle: cycle}
	var err error
	if !cycle {
		a := r.e.data.appends[r.nextAppend]
		r.nextAppend++
		op.start, op.end, err = r.append(a)
		return op, err
	}
	fs := r.e.sys.Warehouse().FS()
	before := fs.Stats()
	r.e.sys.AdvanceToMidnight()
	op.start = time.Now()
	op.report, err = r.e.sys.RunMidnightCycleCtx(ctx)
	op.end = time.Now()
	if err != nil {
		return op, fmt.Errorf("online cycle: %w", err)
	}
	r.e.sys.AdvanceClock(10 * time.Hour)
	r.traceOp("core.cycle", op.start, op.end, before, fs.Stats())
	return op, nil
}

// traceOp records a write's span with the dfs counters around it.
func (r *runner) traceOp(name string, start, end time.Time, before, after dfs.IOStats) {
	if r.tr == nil {
		return
	}
	r.tr.add(span{ID: r.tr.newID(), Name: name, Start: r.tr.at(start), End: r.tr.at(end),
		Attrs: map[string]int64{
			"dfs_opens":         after.Opens - before.Opens,
			"dfs_bytes_read":    after.BytesRead - before.BytesRead,
			"dfs_bytes_written": after.BytesWritten - before.BytesWritten,
		}})
}

// append writes a as a new part file, bumping the table's version counters
// around the call.
func (r *runner) append(a appendOp) (start, end time.Time, err error) {
	fs := r.e.sys.Warehouse().FS()
	before := fs.Stats()
	r.started[a.Table].Add(1)
	start = time.Now()
	_, err = r.e.sys.Warehouse().AppendRows(db, a.Table, a.Rows)
	end = time.Now()
	if err != nil {
		return start, end, fmt.Errorf("append %s: %w", a.Table, err)
	}
	r.done[a.Table].Add(1)
	r.traceOp("warehouse.append", start, end, before, fs.Stats())
	return start, end, nil
}

// registryDelta is the change of the obs registry over a window.
type registryDelta struct {
	counters map[string]int64
	hists    map[string]obs.HistSnapshot
}

func diffRegistry(a, b obs.Snapshot) registryDelta {
	d := registryDelta{counters: map[string]int64{}, hists: map[string]obs.HistSnapshot{}}
	for k, v := range b.Counters {
		d.counters[k] = v - a.Counters[k]
	}
	for k, hb := range b.Histograms {
		ha := a.Histograms[k]
		prev := map[int64]int64{}
		for _, bk := range ha.Buckets {
			prev[bk.LE] = bk.Count
		}
		out := obs.HistSnapshot{Count: hb.Count - ha.Count, Sum: hb.Sum - ha.Sum}
		for _, bk := range hb.Buckets {
			if n := bk.Count - prev[bk.LE]; n > 0 {
				out.Buckets = append(out.Buckets, obs.HistBucket{LE: bk.LE, Count: n})
			}
		}
		d.hists[k] = out
	}
	return d
}
