package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"perspector"
	"perspector/internal/jobs"
	"perspector/internal/metric"
	"perspector/internal/par"
	"perspector/internal/perf"
	"perspector/internal/rng"
	"perspector/internal/server"
	"perspector/internal/store"
)

// Job mix shared by serve_mixed's jobs client and fleet_jobs' clients:
// single-suite score jobs at a reduced budget, a fresh seed each, with
// every replayEvery-th op resubmitting an earlier request instead. Every
// fresh job scores the same suite, so job latency is one population and
// its median does not depend on which suites a seed happens to draw.
//
// Budgets differ per workload. serve_mixed's job shares the cores with
// the stream client, and a job long enough to be mostly its own compute
// keeps its latency from following the stream's scheduling. fleet_jobs
// runs two jobs at once; a small budget keeps the fleet's own costs
// (dispatch, pull, push, replication) a visible share, and the two
// simulations contending for memory from dominating the latency.
const (
	jobSuite          = "parsec"
	serveInstructions = 40_000
	fleetInstructions = 10_000
	jobSamples        = 20
	replayEvery       = 4
)

// Stream shape of serve_mixed's stream client: each stream opens with
// streamWorkloads workloads, then takes streamChunks-1 incremental
// chunks (every totalsEvery-th carries counter totals, the rest only
// series samples) and closes.
const (
	streamWorkloads = 12
	streamChunks    = 16
	totalsEvery     = 4
	openSamples     = 24
	chunkSamples    = 2
	sampleInterval  = 1000
)

// httpStack is a perspectord stack on loopback plus the benchmark's HTTP
// clients. Runners are wrapped so a traced phase records a span around
// each jobs.Runner call, parented under the op that submitted the job
// (matched by request ID).
type httpStack struct {
	e      *env
	url    string
	client *http.Client
	srv    *http.Server
	served chan struct{}
	stop   []func() // teardown, run in order

	rec     atomic.Pointer[recorder]
	parents sync.Map // span name + "/" + request ID → span id
	timing  sync.Map // span name + "/" + request ID → [2]time.Time
	// top names the runner span of the queue the clients submit to;
	// calls counts that runner's calls.
	top   string
	calls atomic.Int64
	// jobInstr is the instruction budget of the clients' fresh jobs.
	jobInstr uint64

	// afterRunner, when set, observes each top-level runner's finished
	// job (the fleet's replication-lag watcher).
	afterRunner func(key string, at time.Time)

	phases  []*jobPhase
	streams []*streamRun // serve_mixed only
}

// jobPhase holds one phase's job outputs for verification and analysis.
type jobPhase struct {
	mu      sync.Mutex
	fresh   []jobOut
	replays []jobOut
	traced  []jobTrace
}

// jobOut is one completed job: the request it answered and its result.
type jobOut struct {
	req    jobs.Request
	key    string
	set    store.ScoreSet
	origin int // replays: index of the fresh job it repeats
}

// jobTrace is what a traced job op measured beside its spans.
type jobTrace struct {
	rid     string
	replay  bool
	latency time.Duration
	snap    jobs.Snapshot
}

func discardLog() *slog.Logger { return slog.New(slog.NewTextHandler(io.Discard, nil)) }

// wrap times runner calls. name is the runner's span, parentName the
// span it nests under (looked up by request ID), rank its layer rank.
func (h *httpStack) wrap(name, parentName string, rank int, inner jobs.Runner) jobs.Runner {
	return func(ctx context.Context, hd *jobs.Handle) (store.ScoreSet, error) {
		top := name == h.top
		if top {
			h.calls.Add(1)
		}
		rid := hd.Request().RequestID
		rec := h.rec.Load()
		id := -1
		if v, ok := h.parents.Load(parentName + "/" + rid); ok && rec != nil {
			id = rec.begin(name, v.(int), rank)
			h.parents.Store(name+"/"+rid, id)
		}
		start := time.Now()
		set, err := inner(ctx, hd)
		end := time.Now()
		rec.end(id)
		if rec != nil {
			h.timing.Store(name+"/"+rid, [2]time.Time{start, end})
			if err == nil && top && h.afterRunner != nil {
				h.afterRunner(hd.Key(), end)
			}
		}
		return set, err
	}
}

// listen serves handler on a loopback port.
func (h *httpStack) listen(handler http.Handler) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	h.url = "http://" + ln.Addr().String()
	h.srv = &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second}
	h.served = make(chan struct{})
	go func() {
		defer close(h.served)
		if err := h.srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(h.e.stderr, "perfbench: serve:", err)
		}
	}()
	h.client = &http.Client{Timeout: 60 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: 8}}
	return nil
}

// shutdown stops the HTTP server and waits for it. It runs after every
// client has finished, so it closes connections outright: a graceful
// Shutdown would wait up to 5s for a connection the client transport
// dialed but never used.
func (h *httpStack) shutdown() {
	if h.srv == nil {
		return
	}
	h.srv.Close()
	<-h.served
	h.client.CloseIdleConnections()
}

func (h *httpStack) close() {
	for _, f := range h.stop {
		f()
	}
}

// do runs one HTTP round trip and reads the whole body.
func (h *httpStack) do(ctx context.Context, method, path, rid string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, h.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if rid != "" {
		req.Header.Set("X-Request-ID", rid)
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

// jobRequest builds a fresh job under simulation seed seed.
func (h *httpStack) jobRequest(seed uint64) jobs.Request {
	return jobs.Request{
		Kind:   store.KindScore,
		Suites: []string{jobSuite},
		Config: store.RunConfig{Instructions: h.jobInstr, Samples: jobSamples, Seed: seed},
	}
}

// jobClient is one closed-loop job client: op seq submits a fresh job,
// or every replayEvery-th op an earlier request of the same client.
type jobClient struct {
	h     *httpStack
	jp    *jobPhase
	p     *phase
	rec   *recorder
	name  string
	src   *rng.Source
	seed  uint64
	fresh []int // indices into jp.fresh of this client's fresh jobs
}

func (h *httpStack) newJobClient(p *phase, jp *jobPhase, rec *recorder, name string) *jobClient {
	return &jobClient{h: h, jp: jp, p: p, rec: rec, name: name,
		src: rng.New(derive(h.e.seed, name, 0)), seed: derive(h.e.seed, name, 1)}
}

func (c *jobClient) op(ctx context.Context, seq int) {
	rid := fmt.Sprintf("%s-%d", c.name, seq)
	replay := seq%replayEvery == replayEvery-1 && len(c.fresh) > 0
	var req jobs.Request
	origin := -1
	if replay {
		origin = c.fresh[c.src.Intn(len(c.fresh))]
		c.jp.mu.Lock()
		req = c.jp.fresh[origin].req
		c.jp.mu.Unlock()
	} else {
		req = c.h.jobRequest(rng.ChildSeed(c.seed, seq) | 1)
	}
	class := "job"
	if replay {
		class = "replay"
	}
	snap, set, o, d, root := c.h.submit(ctx, c.rec, class, rid, req)
	c.p.done(class, o, d, root)
	if o != opOK {
		return
	}
	out := jobOut{req: req, key: snap.Key, set: set, origin: origin}
	c.jp.mu.Lock()
	if replay {
		c.jp.replays = append(c.jp.replays, out)
	} else {
		c.jp.fresh = append(c.jp.fresh, out)
		c.fresh = append(c.fresh, len(c.jp.fresh)-1)
	}
	c.jp.mu.Unlock()
	if c.rec != nil {
		// Outside the op: the final snapshot's lifecycle stamps split the
		// job's server-side time into queue wait, runner and finish.
		status, raw, err := c.h.do(ctx, http.MethodGet, "/api/v1/jobs/"+snap.ID, "", nil)
		var final jobs.Snapshot
		if classify(status, err) == opOK && json.Unmarshal(raw, &final) == nil {
			c.h.addJobSpans(c.rec, root, rid, final)
			c.jp.mu.Lock()
			c.jp.traced = append(c.jp.traced, jobTrace{rid: rid, replay: replay, latency: d, snap: final})
			c.jp.mu.Unlock()
		}
	}
}

// submit posts one job and long-polls its result: the op a perspectord
// client performs. Latency runs from the start of the POST until the
// result body is read.
func (h *httpStack) submit(ctx context.Context, rec *recorder, class, rid string, req jobs.Request) (jobs.Snapshot, store.ScoreSet, outcome, time.Duration, int) {
	body, err := json.Marshal(req)
	if err != nil {
		return jobs.Snapshot{}, store.ScoreSet{}, opFailed, 0, -1
	}
	root := rec.begin(class, -1, 0)
	if root >= 0 {
		h.parents.Store("op/"+rid, root)
	}
	start := time.Now()
	id := rec.begin("server.submit", root, 1)
	status, raw, err := h.do(ctx, http.MethodPost, "/api/v1/jobs", rid, body)
	rec.end(id)
	var sub struct {
		Job jobs.Snapshot `json:"job"`
	}
	if o := classify(status, err); o != opOK {
		rec.end(root)
		return sub.Job, store.ScoreSet{}, o, time.Since(start), root
	}
	if err := json.Unmarshal(raw, &sub); err != nil {
		rec.end(root)
		return sub.Job, store.ScoreSet{}, opFailed, time.Since(start), root
	}
	id = rec.begin("server.wait", root, 1)
	status, raw, err = h.do(ctx, http.MethodGet, "/api/v1/jobs/"+sub.Job.ID+"/result?wait=1", rid, nil)
	rec.end(id)
	d := time.Since(start)
	rec.end(root)
	var set store.ScoreSet
	if o := classify(status, err); o != opOK {
		return sub.Job, set, o, d, root
	}
	if err := json.Unmarshal(raw, &set); err != nil {
		return sub.Job, set, opFailed, d, root
	}
	return sub.Job, set, opOK, d, root
}

// addJobSpans rebuilds the job's server-side stages from its snapshot
// stamps and the runner timing: queue wait (created → runner start, or
// → started for a replay) and finish (runner end → finished).
func (h *httpStack) addJobSpans(rec *recorder, root int, rid string, snap jobs.Snapshot) {
	created, err1 := time.Parse(time.RFC3339Nano, snap.CreatedAt)
	started, err2 := time.Parse(time.RFC3339Nano, snap.StartedAt)
	finished, err3 := time.Parse(time.RFC3339Nano, snap.FinishedAt)
	if err1 != nil || err2 != nil || err3 != nil {
		return
	}
	runStart, runEnd := started, started
	if v, ok := h.timing.Load(h.top + "/" + rid); ok && !snap.Replayed {
		t := v.([2]time.Time)
		runStart, runEnd = t[0], t[1]
	}
	rec.add("jobs.queue_wait", root, 2, created, runStart)
	rec.add("jobs.finish", root, 2, runEnd, finished)
}

// jobLayers derives the job-path per-layer metrics of a traced phase.
func (h *httpStack) jobLayers(p *phase, jp *jobPhase, out metricSet) {
	st := spanStats(p, "job")
	out.set("server.submit_ms", "ms", median(st["server.submit"]))
	var overhead, queue, runner, finish []float64
	replayed, total := 0, 0
	for _, t := range jp.traced {
		total++
		if t.snap.Replayed {
			replayed++
		}
		if t.replay {
			continue
		}
		created, _ := time.Parse(time.RFC3339Nano, t.snap.CreatedAt)
		started, _ := time.Parse(time.RFC3339Nano, t.snap.StartedAt)
		finished, _ := time.Parse(time.RFC3339Nano, t.snap.FinishedAt)
		overhead = append(overhead, ms(t.latency-finished.Sub(created)))
		queue = append(queue, ms(started.Sub(created)))
		if v, ok := h.timing.Load(h.top + "/" + t.rid); ok {
			r := v.([2]time.Time)
			finish = append(finish, ms(finished.Sub(started)-r[1].Sub(r[0])))
		}
		if v, ok := h.timing.Load("jobs.runner/" + t.rid); ok {
			r := v.([2]time.Time)
			runner = append(runner, ms(r[1].Sub(r[0])))
		}
	}
	out.set("server.wait_overhead_ms", "ms", median(overhead))
	out.set("jobs.queue_wait_ms", "ms", median(queue))
	out.set("jobs.runner_ms", "ms", median(runner))
	out.set("jobs.finish_ms", "ms", median(finish))
	if total > 0 {
		out.set("jobs.replayed_frac", "ratio", float64(replayed)/float64(total))
	}
}

// storeProbe times direct store.Put and store.Get calls on the phase's
// own ScoreSets, in a fresh store.
func (h *httpStack) storeProbe(jp *jobPhase, out metricSet) error {
	st, err := store.Open(filepath.Join(h.e.dir, fmt.Sprintf("probe-%d", time.Now().UnixNano())))
	if err != nil {
		return err
	}
	defer st.Close()
	var puts, gets []float64
	for _, j := range jp.fresh {
		start := time.Now()
		if err := st.Put(j.key, j.set); err != nil {
			return err
		}
		puts = append(puts, ms(time.Since(start)))
	}
	for _, j := range jp.fresh {
		start := time.Now()
		_, ok := st.Get(j.key)
		gets = append(gets, ms(time.Since(start)))
		if !ok {
			return fmt.Errorf("store probe: %s not found after Put", j.key)
		}
	}
	out.set("store.put_ms", "ms", median(puts))
	out.set("store.get_ms", "ms", median(gets))
	return nil
}

// verifyJobs checks job outputs: a seed-derived sample of fresh jobs
// against the direct engine (and the sample's first suite measured
// twice, whose PMU totals must repeat), and every replay against the
// fresh job it repeats.
func (h *httpStack) verifyJobs(ctx context.Context, c *checker) error {
	repeated := false
	for pi, jp := range h.phases {
		for i, j := range jp.fresh {
			if i != 0 && derive(h.e.seed, "jobcheck", pi*1_000_000+i)%8 != 0 {
				continue
			}
			cfg := perspector.DefaultConfig()
			cfg.Instructions, cfg.Samples, cfg.Seed = j.req.Config.Instructions, j.req.Config.Samples, j.req.Config.Seed
			suite, err := perspector.SuiteByName(j.req.Suites[0], cfg)
			if err != nil {
				return err
			}
			m, err := perspector.MeasureContext(ctx, suite, cfg)
			if err != nil {
				return err
			}
			if !repeated {
				again, err := perspector.MeasureContext(ctx, suite, cfg)
				if err != nil {
					return err
				}
				c.expect(sameSuites([]*perf.SuiteMeasurement{m}, []*perf.SuiteMeasurement{again}),
					"PMU totals of %s differ across repetitions of seed %d", suite.Name, cfg.Seed)
				repeated = true
			}
			ref, err := perspector.ScoreContext(ctx, m, perspector.DefaultOptions())
			if err != nil {
				return err
			}
			c.op(sameScores(j.set.Scores(), []metric.Scores{ref}),
				"job %s seed %d: HTTP result differs from the direct engine:\n got %s\nwant %s",
				j.req.Suites[0], cfg.Seed, hexScores(j.set.Scores()), hexScores([]metric.Scores{ref}))
		}
		for _, r := range jp.replays {
			c.op(sameScores(r.set.Scores(), jp.fresh[r.origin].set.Scores()),
				"replay of %s seed %d differs from its first result", r.req.Suites[0], r.req.Config.Seed)
		}
	}
	return nil
}

// serveStack is serve_mixed: a single-node perspectord (server, job
// queue, result store, stream manager) driven by one jobs client and one
// stream client.
type serveStack struct {
	*httpStack
	incr []incrCheck // traced replays of streams through IncrementalRun
}

// serviceWorkers is the engine parallelism of the service workloads
// (perspectord -workers 1): each of the two closed-loop clients' work
// then runs on one core instead of both clients' engines contending for
// both cores.
const serviceWorkers = 1

func setupServe(ctx context.Context, e *env) (stack, error) {
	par.SetWorkers(serviceWorkers)
	h := &httpStack{e: e, top: "jobs.runner", jobInstr: serveInstructions}
	s := &serveStack{httpStack: h}
	st, err := store.Open(filepath.Join(e.dir, fmt.Sprintf("store-%d", time.Now().UnixNano())))
	if err != nil {
		return nil, err
	}
	q := jobs.New(h.wrap("jobs.runner", "op", 2, jobs.EngineRunner(nil)),
		jobs.Options{Workers: 2, MaxQueue: 64, Store: st, Log: discardLog()})
	streams := jobs.NewStreamManager(jobs.StreamOptions{Store: st, Log: discardLog()})
	if err := h.listen(server.New(server.Config{Queue: q, Streams: streams, Store: st, Log: discardLog()}).Handler()); err != nil {
		st.Close()
		return nil, err
	}
	h.stop = append(h.stop, func() {
		h.shutdown()
		dctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		q.Drain(dctx)
		streams.Drain(dctx)
		st.Close()
	})
	// Warm-up, untimed: one job and one short stream through the stack.
	p, jp := newPhase("job", "job", "replay", "chunk", "open"), &jobPhase{}
	h.newJobClient(p, jp, nil, "warmup").op(ctx, 0)
	sc := s.newStreamClient(p, nil, "warmup")
	for i := 0; i < streamChunks; i++ {
		sc.op(ctx)
	}
	if p.tally.bad() > 0 {
		s.close()
		return nil, fmt.Errorf("serve_mixed warm-up failed")
	}
	s.streams = nil
	return s, nil
}

func (s *serveStack) run(ctx context.Context, deadline time.Time, rec *recorder) (*phase, error) {
	p := newPhase("job", "job", "replay", "chunk", "open")
	jp := &jobPhase{}
	s.phases = append(s.phases, jp)
	s.rec.Store(rec)
	defer s.rec.Store(nil)
	pi := len(s.phases)
	jc := s.newJobClient(p, jp, rec, fmt.Sprintf("jobs%d", pi))
	sc := s.newStreamClient(p, rec, fmt.Sprintf("stream%d", pi))
	timed(p, rec, func() {
		closedLoop(2, deadline, func(client, seq int) {
			if client == 0 {
				jc.op(ctx, seq)
			} else {
				sc.op(ctx)
			}
		})
	})
	return p, nil
}

func (s *serveStack) layers(ctx context.Context, p *phase, out metricSet) error {
	jp := s.phases[len(s.phases)-1]
	s.jobLayers(p, jp, out)
	st := spanStats(p, "chunk")
	out.set("stream.post_ms", "ms", median(st["stream.post"]))
	out.set("stream.scores_wait_ms", "ms", median(st["stream.scores_wait"]))
	if err := s.storeProbe(jp, out); err != nil {
		return err
	}
	return s.incrProbe(ctx, out)
}

func (s *serveStack) verify(ctx context.Context, c *checker) error {
	if err := s.verifyJobs(ctx, c); err != nil {
		return err
	}
	return s.verifyStreams(ctx, c)
}

// streamRun is one stream's chunk sequence and final scores.
type streamRun struct {
	chunks []jobs.StreamChunk
	kinds  []string // per chunk: "open", "samples" or "totals"
	final  *store.ScoreSet
}

// streamClient is the closed-loop stream client: each op appends one
// chunk to the open stream and long-polls the next scores version; the
// stream is opened before its first chunk and closed after its last.
type streamClient struct {
	s    *serveStack
	p    *phase
	rec  *recorder
	name string
	src  *rng.Source
	cur  *streamRun
	id   string
	seq  int64
	n    int
}

func (s *serveStack) newStreamClient(p *phase, rec *recorder, name string) *streamClient {
	return &streamClient{s: s, p: p, rec: rec, name: name, src: rng.New(derive(s.e.seed, name, 0))}
}

// nextChunk draws chunk j of the current stream.
func (c *streamClient) nextChunk(j int) (jobs.StreamChunk, string) {
	row := func(n int) [][]float64 {
		out := make([][]float64, perf.NumCounters)
		for k := range out {
			out[k] = make([]float64, n)
			for t := range out[k] {
				out[k][t] = float64(1 + c.src.Intn(2000))
			}
		}
		return out
	}
	totals := func(scale int) []uint64 {
		out := make([]uint64, perf.NumCounters)
		for k := range out {
			out[k] = uint64(1 + c.src.Intn(scale))
		}
		return out
	}
	if j == 0 {
		var ch jobs.StreamChunk
		for w := 0; w < streamWorkloads; w++ {
			ch.Workloads = append(ch.Workloads, jobs.ChunkWorkload{
				Name: fmt.Sprintf("w%02d", w), Totals: totals(50_000), Series: row(openSamples)})
		}
		return ch, "open"
	}
	w := jobs.ChunkWorkload{Name: fmt.Sprintf("w%02d", c.src.Intn(streamWorkloads)), Series: row(chunkSamples)}
	kind := "samples"
	if j%totalsEvery == 0 {
		w.Totals = totals(5_000)
		kind = "totals"
	}
	return jobs.StreamChunk{Workloads: []jobs.ChunkWorkload{w}}, kind
}

func (c *streamClient) op(ctx context.Context) {
	j := 0
	if c.cur != nil {
		j = len(c.cur.chunks)
	}
	rid := fmt.Sprintf("%s-%d", c.name, c.n)
	c.n++
	chunk, kind := c.nextChunk(j)
	class := "chunk"
	if kind == "open" {
		class = "open"
	}
	body, err := json.Marshal(chunk)
	if err != nil {
		c.p.done(class, opFailed, 0, -1)
		return
	}
	root := c.rec.begin(class, -1, 0)
	start := time.Now()
	if j == 0 {
		id := c.rec.begin("stream.open", root, 1)
		status, raw, err := c.s.do(ctx, http.MethodPost, "/api/v1/streams", rid,
			[]byte(fmt.Sprintf(`{"suites":["live"],"sample_interval":%d}`, sampleInterval)))
		c.rec.end(id)
		var snap jobs.StreamSnapshot
		if o := classify(status, err); o != opOK || json.Unmarshal(raw, &snap) != nil {
			c.rec.end(root)
			c.p.done(class, max(o, opFailed), time.Since(start), root)
			return
		}
		c.cur, c.id, c.seq = &streamRun{}, snap.ID, 0
		c.s.streams = append(c.s.streams, c.cur)
	}
	id := c.rec.begin("stream.post", root, 1)
	status, _, err := c.s.do(ctx, http.MethodPost, "/api/v1/streams/"+c.id+"/chunks", rid, body)
	c.rec.end(id)
	if o := classify(status, err); o != opOK {
		c.rec.end(root)
		c.p.done(class, o, time.Since(start), root)
		c.cur = nil // abandon the stream; the next op opens a new one
		return
	}
	c.cur.chunks = append(c.cur.chunks, chunk)
	c.cur.kinds = append(c.cur.kinds, kind)
	id = c.rec.begin("stream.scores_wait", root, 1)
	sc, o := c.scores(ctx, rid)
	c.rec.end(id)
	d := time.Since(start)
	c.rec.end(root)
	if o != opOK || sc.Scores == nil {
		c.p.done(class, max(o, opFailed), d, root)
		c.cur = nil
		return
	}
	c.seq = sc.Seq
	c.p.done(class, opOK, d, root)
	if len(c.cur.chunks) == streamChunks {
		c.finish(ctx, rid)
	}
}

// scores long-polls the stream past the last seen version.
func (c *streamClient) scores(ctx context.Context, rid string) (jobs.StreamScores, outcome) {
	var sc jobs.StreamScores
	status, raw, err := c.s.do(ctx, http.MethodGet,
		fmt.Sprintf("/api/v1/streams/%s/scores?since=%d&wait=1", c.id, c.seq), rid, nil)
	if o := classify(status, err); o != opOK {
		return sc, o
	}
	if json.Unmarshal(raw, &sc) != nil {
		return sc, opFailed
	}
	return sc, opOK
}

// finish closes the stream and keeps its final scores for verification.
func (c *streamClient) finish(ctx context.Context, rid string) {
	run := c.cur
	c.cur = nil
	status, _, err := c.s.do(ctx, http.MethodPost, "/api/v1/streams/"+c.id+"/close", rid, nil)
	if classify(status, err) != opOK {
		return
	}
	sc, o := c.scores(ctx, rid)
	if o == opOK && sc.State == jobs.StreamDone {
		run.final = sc.Scores
	}
}

// accumulate folds a stream's chunks into the measurement the stream
// manager builds: a new workload name appends a workload; a known one
// adds its totals and appends its series.
func accumulate(chunks []jobs.StreamChunk) *perf.SuiteMeasurement {
	sm := &perf.SuiteMeasurement{Suite: "live"}
	index := map[string]int{}
	for _, ch := range chunks {
		for _, w := range ch.Workloads {
			i, ok := index[w.Name]
			if !ok {
				index[w.Name] = len(sm.Workloads)
				m := perf.Measurement{Workload: w.Name}
				m.Series.Interval = sampleInterval
				sm.Workloads = append(sm.Workloads, m)
				i = len(sm.Workloads) - 1
			}
			m := &sm.Workloads[i]
			for k, v := range w.Totals {
				m.Totals[k] += v
			}
			for k, row := range w.Series {
				m.Series.Samples[k] = append(m.Series.Samples[k], row...)
			}
		}
	}
	return sm
}

// verifyStreams checks that every finished stream has final scores,
// that a seed-derived quarter of them equal a batch score of the same
// accumulated data, and that the traced replays through IncrementalRun
// ended on the same scores.
func (s *serveStack) verifyStreams(ctx context.Context, c *checker) error {
	finished := 0
	for i, run := range s.streams {
		if len(run.chunks) < streamChunks {
			continue // cut off by the deadline
		}
		finished++
		c.op(run.final != nil, "stream %d finished without final scores", i)
		if run.final == nil || (finished > 1 && derive(s.e.seed, "streamcheck", i)%4 != 0) {
			continue
		}
		ref, err := metric.ScoreSuites(ctx, []*perf.SuiteMeasurement{accumulate(run.chunks)}, metric.DefaultOptions(), nil)
		if err != nil {
			return err
		}
		c.op(sameScores(run.final.Scores(), ref), "stream %d: final scores differ from batch:\n got %s\nwant %s",
			i, hexScores(run.final.Scores()), hexScores(ref))
	}
	c.expect(finished > 0, "serve_mixed: no stream ran to completion")
	for _, ic := range s.incr {
		c.expect(ic.match, "stream %d: IncrementalRun replay differs from the served final scores", ic.stream)
	}
	return nil
}

// incrCheck is one traced replay's verdict.
type incrCheck struct {
	stream int
	match  bool
}

// maxIncrReplays bounds how many streams the traced run replays
// through IncrementalRun.
const maxIncrReplays = 16

// incrProbe replays the stream client's exact chunk sequences through
// metric.IncrementalRun directly, timing the appends and the rescore of
// each chunk, split by chunk kind.
func (s *serveStack) incrProbe(ctx context.Context, out metricSet) error {
	times := map[string][]float64{}
	replayed := 0
	for i, run := range s.streams {
		if replayed == maxIncrReplays {
			break
		}
		if run.final == nil {
			continue
		}
		replayed++
		r, err := metric.NewIncrementalRun([]*perf.SuiteMeasurement{{Suite: "live"}}, metric.DefaultOptions(), nil)
		if err != nil {
			return err
		}
		var last []metric.Scores
		for j, ch := range run.chunks {
			start := time.Now()
			if err := appendChunk(r, ch); err != nil {
				return err
			}
			mid := time.Now()
			if last, err = r.Scores(ctx); err != nil {
				return err
			}
			kind := run.kinds[j]
			times["append."+kind] = append(times["append."+kind], ms(mid.Sub(start)))
			times["scores."+kind] = append(times["scores."+kind], ms(time.Since(mid)))
		}
		s.incr = append(s.incr, incrCheck{stream: i, match: sameScores(last, run.final.Scores())})
	}
	for _, kind := range []string{"samples", "totals"} {
		out.set("metric.incr.append_ms."+kind, "ms", median(times["append."+kind]))
		out.set("metric.incr.scores_ms."+kind, "ms", median(times["scores."+kind]))
	}
	return nil
}

// appendChunk applies one chunk to an IncrementalRun the way the stream
// manager does.
func appendChunk(r *metric.IncrementalRun, ch jobs.StreamChunk) error {
	for _, w := range ch.Workloads {
		var totals perf.Values
		for k, v := range w.Totals {
			totals[k] += v
		}
		var series *perf.TimeSeries
		if len(w.Series) > 0 && len(w.Series[0]) > 0 {
			series = &perf.TimeSeries{Interval: sampleInterval}
			for k, row := range w.Series {
				series.Samples[k] = append([]float64(nil), row...)
			}
		}
		if r.WorkloadIndex(0, w.Name) < 0 {
			m := perf.Measurement{Workload: w.Name, Totals: totals}
			if series != nil {
				m.Series = *series
			}
			if err := r.AppendWorkload(0, m); err != nil {
				return err
			}
			continue
		}
		if err := r.AppendSamples(0, w.Name, totals, series); err != nil {
			return err
		}
	}
	return nil
}
