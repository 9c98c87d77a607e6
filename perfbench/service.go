package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/corpus"
	"repro/internal/server"
	"repro/internal/store"
	"repro/pointsto"
)

// The service workload drives an in-process server.New over loopback HTTP
// with keep-alive, from serviceClients closed-loop clients. Each client
// replays a fixed, seeded pass of rounds. One round (the op) holds the
// requests of one draw of loadgen.DefaultMix, the service's intended
// traffic (analyze 2 : pointsto 4 : alias 2 : query 2 : session 1):
//
//   - update: POST /v1/analyze of one corpus.Edits single-function edit of
//     the base program, naming the base's key so the server may resume its
//     graph. A trailing comment unique to the round keeps the version new,
//     so every update solves;
//   - session: POST /v1/session of the same version, a new warm session
//     whose demand engine answers the round's queries;
//   - hit: POST /v1/analyze of a version analyzed during set-up;
//   - queries, on the round's session: pointsToPerRound GET /v1/pointsto
//     and aliasPerRound GET /v1/alias in seeded order, each name asked
//     once, then batchesPerRound POST /v1/query re-asking about names the
//     round has asked about.
//
// Every answer is checked against a library Report of the same version,
// whose own Sets() digest is checked against the reference solver.

const (
	serviceClients   = gomaxprocs
	pointsToPerRound = 4
	aliasPerRound    = 2
	batchesPerRound  = 2 // each batch asks one pointsto and one alias
	serviceHits      = 4 // versions re-posted as hits: the base and three edits
	// roundsPerEdit is how many rounds of a pass update each edit, each
	// round asking about other names. Query latency varies widely between
	// names, so a pass asks about many of them.
	roundsPerEdit = 4
)

type svcInputs struct {
	base  pointsto.Source
	edits []pointsto.Source
}

func svcGenerate(seed uint32, tiny bool) (*svcInputs, error) {
	p := corpus.GenParams{NStructs: 8, NFields: 6, NObjects: 6, NDerefs: 240, CastDensity: 25, Seed: seed}
	nEdits := 12
	if tiny {
		p = corpus.DefaultGenParams()
		p.Seed = seed
		nEdits = 4
	}
	src := corpus.Generate(p)[0]
	in := &svcInputs{base: pointsto.Source{Name: src.Name, Text: src.Text}}
	for _, e := range corpus.Edits(src.Text, seed, nEdits) {
		in.edits = append(in.edits, pointsto.Source{Name: src.Name, Text: e.Text})
	}
	if len(in.edits) < nEdits {
		return nil, fmt.Errorf("only %d of %d edits generated", len(in.edits), nEdits)
	}
	return in, nil
}

// hitVersion is the i-th version re-posted as a hit.
func (in *svcInputs) hitVersion(i int) pointsto.Source {
	if i == 0 {
		return in.base
	}
	return in.edits[i-1]
}

// svcEnv is one running server plus the state set-up created on it.
type svcEnv struct {
	url     string
	client  *http.Client
	stop    func() error
	baseKey string
}

func startService(in *svcInputs) (*svcEnv, error) {
	st, err := store.New(16<<20, "")
	if err != nil {
		return nil, err
	}
	srv := server.New(server.Config{
		Store:       st,
		MaxGraphs:   8,
		MaxSessions: 8,
		// One solve slot: the solver already runs at GOMAXPROCS workers.
		Admission: server.AdmissionConfig{MaxInflight: 1},
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, l, 10*time.Second) }()
	tr := &http.Transport{MaxIdleConnsPerHost: serviceClients + 1, DisableCompression: true}
	env := &svcEnv{
		url:    "http://" + l.Addr().String(),
		client: &http.Client{Transport: tr},
	}
	env.stop = func() error {
		cancel()
		err := <-done
		tr.CloseIdleConnections()
		return err
	}
	var rep server.ReportJSON
	if err := env.post("/v1/analyze", server.AnalyzeRequest{Sources: sourcesJSON(in.base)}, &rep); err != nil {
		env.stop()
		return nil, fmt.Errorf("analyze base: %w", err)
	}
	env.baseKey = rep.Key
	for i := 1; i < serviceHits; i++ {
		req := server.AnalyzeRequest{Sources: sourcesJSON(in.hitVersion(i)), Base: env.baseKey}
		if err := env.post("/v1/analyze", req, &rep); err != nil {
			env.stop()
			return nil, fmt.Errorf("analyze hit version %d: %w", i, err)
		}
	}
	return env, nil
}

func sourcesJSON(s pointsto.Source) []server.SourceJSON {
	return []server.SourceJSON{{Name: s.Name, Text: s.Text}}
}

func (e *svcEnv) post(path string, body, out any) error {
	buf, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := e.client.Post(e.url+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		return err
	}
	return decode(resp, out)
}

func (e *svcEnv) get(path string, q url.Values, out any) error {
	resp, err := e.client.Get(e.url + path + "?" + q.Encode())
	if err != nil {
		return err
	}
	return decode(resp, out)
}

func decode(resp *http.Response, out any) error {
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", resp.Request.URL.Path, resp.StatusCode, bytes.TrimSpace(body))
	}
	return json.Unmarshal(body, out)
}

func (e *svcEnv) varz() (server.Varz, error) {
	var v server.Varz
	err := e.get("/varz", nil, &v)
	return v, err
}

// expectation is the library's answer for one version.
type expectation struct {
	facts, sites int
	avg          float64
}

// svcOracle holds the expected answers, computed outside every timed
// region.
type svcOracle struct {
	edits, hits []expectation
	names       [][]string // per edit, the names its session must list
	base        *pointsto.Report
	editReps    []*pointsto.Report
}

// newSvcOracle analyzes every version with the library and checks each
// library Report's Sets() against the reference solver.
func newSvcOracle(in *svcInputs) (*svcOracle, error) {
	expect := func(s pointsto.Source) (expectation, *pointsto.Report, error) {
		src := []pointsto.Source{s}
		rep, err := pointsto.Analyze(src, pointsto.Config{Strategy: pointsto.CIS})
		if err != nil {
			return expectation{}, nil, err
		}
		want, err := referenceDigest(src, pointsto.CIS)
		if err != nil {
			return expectation{}, nil, err
		}
		if got := setsDigest(rep.Sets()); got != want {
			return expectation{}, nil, fmt.Errorf("library digest %s disagrees with the reference solver's %s", got, want)
		}
		return expectation{rep.TotalFacts(), rep.NumDerefSites(), rep.DerefSetSize()}, rep, nil
	}
	or := &svcOracle{}
	for i, e := range in.edits {
		x, rep, err := expect(e)
		if err != nil {
			return nil, fmt.Errorf("edit %d: %w", i, err)
		}
		or.edits = append(or.edits, x)
		or.names = append(or.names, rep.Names())
		or.editReps = append(or.editReps, rep)
	}
	x, base, err := expect(in.base)
	if err != nil {
		return nil, fmt.Errorf("base: %w", err)
	}
	or.base = base
	or.hits = append(or.hits, x)
	or.hits = append(or.hits, or.edits[:serviceHits-1]...)
	return or, nil
}

// query is one request of a round's query traffic on the round's session:
// GET /v1/pointsto of a (b empty), GET /v1/alias of a and b, or a POST
// /v1/query batch of both (batch set). targets and alias hold the
// library's answer for the round's version.
type query struct {
	a, b    string
	batch   bool
	targets []string
	alias   bool
}

// clientQueries picks each round's queries for one client, about pointers
// every version defines (names with a non-empty set in the base). The
// point queries ask about distinct names, so each builds a demand slice
// unless an earlier slice already covers it; each batch re-asks a pointsto
// and an alias about names the point queries asked about, which the
// session's memo answers.
func clientQueries(seed uint32, client int, order []int, or *svcOracle) [][]query {
	count := map[string]int{}
	for _, rep := range or.editReps {
		for _, n := range rep.Names() {
			count[n]++
		}
	}
	var names []string
	for _, n := range or.base.Names() {
		if count[n] == len(or.editReps) && len(or.base.PointsTo(n)) > 0 {
			names = append(names, n)
		}
	}
	r := newLCG(seed, uint32(200+client))
	out := make([][]query, len(order))
	for i := range out {
		rep := or.editReps[order[i]]
		perm := r.perm(len(names))
		var asked []string
		ask := func() string {
			n := names[perm[len(asked)]]
			asked = append(asked, n)
			return n
		}
		var point []query
		for k := 0; k < pointsToPerRound; k++ {
			q := query{a: ask()}
			q.targets = rep.PointsTo(q.a)
			point = append(point, q)
		}
		for k := 0; k < aliasPerRound; k++ {
			q := query{a: ask(), b: ask()}
			q.alias = rep.MayAlias(q.a, q.b)
			point = append(point, q)
		}
		for _, j := range r.perm(len(point)) {
			out[i] = append(out[i], point[j])
		}
		for k := 0; k < batchesPerRound; k++ {
			q := query{a: asked[r.next(len(asked))], b: asked[r.next(len(asked))], batch: true}
			q.targets = rep.PointsTo(q.a)
			q.alias = rep.MayAlias(q.a, q.b)
			out[i] = append(out[i], q)
		}
	}
	return out
}

// svcClient is one closed-loop client's fixed request sequence and results.
type svcClient struct {
	id      int
	order   []int     // edit index per round
	queries [][]query // per round
	tr      *tracer

	roundMS, tracedMS, untracedMS []float64
	kindMS                        map[string][]float64 // latencies per request kind
	requestMS                     map[string]float64   // client latency sum per endpoint
	requests                      map[string]int
	rounds, failed                int
}

// round runs one op. salt makes the update's version unique.
func (c *svcClient) round(env *svcEnv, in *svcInputs, or *svcOracle, i int, salt string, traced bool, opID int) error {
	span := func(parent int, name string) int {
		if !traced {
			return -1
		}
		return c.tr.begin(opID, parent, name, "")
	}
	end := func(id int) {
		if id >= 0 {
			c.tr.end(id)
		}
	}
	root := span(-1, "round")
	defer end(root)
	var firstErr error
	fail := func(err error) {
		if firstErr == nil {
			firstErr = err
		}
	}
	timed := func(kind, endpoint string, do func() error) {
		sp := span(root, "service."+kind)
		t := time.Now()
		err := do()
		d := time.Since(t)
		end(sp)
		c.kindMS[kind] = append(c.kindMS[kind], ms(d))
		c.requestMS[endpoint] += ms(d)
		c.requests[endpoint]++
		if err != nil {
			fail(fmt.Errorf("%s: %w", kind, err))
		}
	}
	checkReport := func(rep server.ReportJSON, want expectation) error {
		if rep.Incomplete || rep.TotalFacts != want.facts || rep.DerefSites != want.sites || rep.AvgDerefSize != want.avg {
			return fmt.Errorf("answer %d facts / %d sites / %g avg, library says %d / %d / %g",
				rep.TotalFacts, rep.DerefSites, rep.AvgDerefSize, want.facts, want.sites, want.avg)
		}
		return nil
	}

	k := c.order[i]
	ed := in.edits[k]
	ed.Text += "\n/* " + salt + " */\n"
	var rep server.ReportJSON
	timed("update", "analyze", func() error {
		if err := env.post("/v1/analyze", server.AnalyzeRequest{Sources: sourcesJSON(ed), Base: env.baseKey}, &rep); err != nil {
			return err
		}
		return checkReport(rep, or.edits[k])
	})
	var sess server.SessionResponse
	timed("session", "session", func() error {
		if err := env.post("/v1/session", server.SessionRequest{Sources: sourcesJSON(ed)}, &sess); err != nil {
			return err
		}
		if sess.Cached || sess.Key != rep.Key || !slices.Equal(sess.Names, or.names[k]) {
			return fmt.Errorf("session %s (cached %t, %d names), want a new session for %s with the library's %d names",
				sess.Key, sess.Cached, len(sess.Names), rep.Key, len(or.names[k]))
		}
		return nil
	})
	h := (i + c.id) % serviceHits
	timed("hit", "analyze", func() error {
		var hit server.ReportJSON
		if err := env.post("/v1/analyze", server.AnalyzeRequest{Sources: sourcesJSON(in.hitVersion(h))}, &hit); err != nil {
			return err
		}
		return checkReport(hit, or.hits[h])
	})
	checkTargets := func(res server.QueryResultJSON, q query) error {
		if res.Error != nil || !slices.Equal(res.Targets, q.targets) {
			return fmt.Errorf("pointsto %s = %v %v, library says %v", q.a, res.Targets, res.Error, q.targets)
		}
		return nil
	}
	checkAlias := func(res server.QueryResultJSON, q query) error {
		if res.Error != nil || res.MayAlias == nil || *res.MayAlias != q.alias {
			return fmt.Errorf("alias %s %s answered %v %v, library says %v", q.a, q.b, res.MayAlias, res.Error, q.alias)
		}
		return nil
	}
	for _, q := range c.queries[i] {
		var res server.QueryResultJSON
		switch {
		case q.batch:
			timed("batch", "query", func() error {
				var batch server.QueryBatchResponse
				req := server.QueryBatchRequest{Queries: []server.QueryJSON{
					{Op: server.OpPointsTo, Key: sess.Key, Var: q.a},
					{Op: server.OpMayAlias, Key: sess.Key, A: q.a, B: q.b},
				}}
				if err := env.post("/v1/query", req, &batch); err != nil {
					return err
				}
				if len(batch.Results) != 2 {
					return fmt.Errorf("query batch of 2 answered %d results", len(batch.Results))
				}
				return errors.Join(checkTargets(batch.Results[0], q), checkAlias(batch.Results[1], q))
			})
		case q.b == "":
			timed("query", "pointsto", func() error {
				if err := env.get("/v1/pointsto", url.Values{"key": {sess.Key}, "var": {q.a}}, &res); err != nil {
					return err
				}
				return checkTargets(res, q)
			})
		default:
			timed("query", "alias", func() error {
				if err := env.get("/v1/alias", url.Values{"key": {sess.Key}, "a": {q.a}, "b": {q.b}}, &res); err != nil {
					return err
				}
				return checkAlias(res, q)
			})
		}
	}
	return firstErr
}

// pass runs the client's fixed sequence once, or its first rounds only.
// Passes are numbered so every update's salt is unique in the run.
func (c *svcClient) pass(env *svcEnv, in *svcInputs, or *svcOracle, passNo, rounds int, traced bool, log io.Writer, measure bool) {
	for i := range c.order[:rounds] {
		t := time.Now()
		opID := c.id*1_000_000 + passNo*len(c.order) + i
		err := c.round(env, in, or, i, fmt.Sprintf("client %d pass %d round %d", c.id, passNo, i), traced, opID)
		d := ms(time.Since(t))
		if !measure {
			if err != nil {
				c.failed++
				fmt.Fprintf(log, "perfbench: warm-up round: %v\n", err)
			}
			continue
		}
		c.rounds++
		c.roundMS = append(c.roundMS, d)
		if traced {
			c.tracedMS = append(c.tracedMS, d)
		} else {
			c.untracedMS = append(c.untracedMS, d)
		}
		if err != nil {
			c.failed++
			fmt.Fprintf(log, "perfbench: client %d round %d: %v\n", c.id, i, err)
		}
	}
}

func (c *svcClient) resetSamples() {
	c.roundMS, c.tracedMS, c.untracedMS = nil, nil, nil
	c.kindMS, c.requestMS, c.requests = map[string][]float64{}, map[string]float64{}, map[string]int{}
}

// serviceSpans name the client spans of a traced round, one per request
// kind.
var serviceSpans = []string{"service.update", "service.session", "service.hit", "service.query", "service.batch"}

// serviceLayerMetrics are the per-layer metrics only the service produces.
var serviceLayerMetrics = []string{
	"store.hit_ratio", "incr.resume_ratio", "solver.ms_per_solve",
	"demand.memo_hit_ratio", "demand.fallback_ratio", "demand.stmts_per_query",
	"admission.queued", "admission.shed", "server.transport_ms",
}

func runService(o options) (*outcome, error) {
	// Expected answers first: outside every timed region, set-up included.
	in, err := svcGenerate(o.seed, o.tiny)
	if err != nil {
		return nil, err
	}
	or, err := newSvcOracle(in)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	clients := make([]*svcClient, serviceClients)
	origin := time.Now()
	for i := range clients {
		c := &svcClient{id: i, tr: newTracer(origin)}
		r := newLCG(o.seed, uint32(300+i))
		for k := 0; k < roundsPerEdit; k++ {
			c.order = append(c.order, r.perm(len(in.edits))...)
		}
		c.queries = clientQueries(o.seed, i, c.order, or)
		c.resetSamples()
		clients[i] = c
	}
	or.base, or.editReps = nil, nil // answers are recorded; free the reports
	if err := resetPeakRSS(); err != nil {
		fmt.Fprintf(o.log, "perfbench: %v; peak_rss_mb includes the oracle\n", err)
	}

	// Set-up: inputs, server, base analyze, hit versions and, per client,
	// a warm-up of the first round of each edit, repeated; setup_s is the
	// median and the last environment is the one measured.
	var env *svcEnv
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if env != nil {
			if err := env.stop(); err != nil {
				return nil, fmt.Errorf("stop set-up server: %w", err)
			}
		}
		runtime.GC()
		t := time.Now()
		if in, err = svcGenerate(o.seed, o.tiny); err != nil {
			return nil, err
		}
		if env, err = startService(in); err != nil {
			return nil, err
		}
		runClients(clients, func(c *svcClient) { c.pass(env, in, or, 0, len(in.edits), false, o.log, false) })
		setups = append(setups, time.Since(t).Seconds())
		for _, c := range clients {
			if c.failed > 0 {
				env.stop()
				return nil, fmt.Errorf("%d warm-up rounds failed", c.failed)
			}
			c.resetSamples()
		}
	}
	defer env.stop()
	setup := median(setups)

	before, err := env.varz()
	if err != nil {
		return nil, err
	}
	var queued []float64
	stopSampler := func() {}
	if o.trace {
		stopSampler = sampleQueue(env, &queued)
	}
	start := time.Now()
	deadline := start.Add(o.run)
	runClients(clients, func(c *svcClient) {
		for p := 1; p <= 2 || time.Now().Before(deadline); p++ {
			c.pass(env, in, or, p, len(c.order), o.trace && p%2 == 0, o.log, true)
		}
	})
	wall := time.Since(start)
	stopSampler()
	after, err := env.varz()
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}

	out := &outcome{metrics: map[string]float64{}}
	var roundMS, tracedMS, untracedMS []float64
	kindMS := map[string][]float64{}
	clientMS, requests := map[string]float64{}, map[string]int{}
	tr := newTracer(origin)
	for _, c := range clients {
		out.attempted += c.rounds
		out.failed += c.failed
		roundMS = append(roundMS, c.roundMS...)
		tracedMS = append(tracedMS, c.tracedMS...)
		untracedMS = append(untracedMS, c.untracedMS...)
		for k, v := range c.kindMS {
			kindMS[k] = append(kindMS[k], v...)
		}
		for k, v := range c.requestMS {
			clientMS[k] += v
			requests[k] += c.requests[k]
		}
		tr.merge(c.tr)
	}
	fmt.Fprintf(o.log, "perfbench: %d rounds (%d updates, %d sessions, %d hits, %d point queries, %d batches) from %d clients in %.1fs, setup %.3fs\n",
		len(roundMS), len(kindMS["update"]), len(kindMS["session"]), len(kindMS["hit"]), len(kindMS["query"]), len(kindMS["batch"]),
		serviceClients, wall.Seconds(), setup)
	m := out.metrics
	if !o.trace {
		m["op_ms_p50"] = median(roundMS)
		m["op_ms_p90"] = quantile(roundMS, 0.9)
		m["ops_per_s"] = float64(len(roundMS)) / wall.Seconds()
		m["ok_frac"] = float64(out.attempted-out.failed) / float64(out.attempted)
		m["peak_rss_mb"] = rss
		m["setup_s"] = setup
		m["query_ms_p50"] = median(kindMS["query"])
		m["update_ms_p50"] = median(kindMS["update"])
		m["hit_ms_p50"] = median(kindMS["hit"])
		return out, nil
	}
	tables := serviceLayers(m, tr, before, after, clientMS, requests, queued, tracedMS, untracedMS)
	return out, writeReport(o, tr, tables)
}

func runClients(clients []*svcClient, f func(*svcClient)) {
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *svcClient) {
			defer wg.Done()
			f(c)
		}(c)
	}
	wg.Wait()
}

// admitted are the endpoints behind admission control that the rounds call.
var admitted = []string{"analyze", "session"}

// sampleQueue polls the admission queue gauges of the admitted endpoints
// every 100ms, summed, until the returned stop function is called.
func sampleQueue(env *svcEnv, out *[]float64) (stop func()) {
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				if v, err := env.varz(); err == nil {
					q := 0.0
					for _, ep := range admitted {
						q += float64(v.Admission.Endpoints[ep].Queued)
					}
					*out = append(*out, q)
				}
			}
		}
	}()
	return func() {
		close(done)
		<-exited
	}
}

func serviceLayers(m map[string]float64, tr *tracer, before, after server.Varz, clientMS map[string]float64, requests map[string]int, queued, tracedMS, untracedMS []float64) []*table {
	d := func(a, b int64) float64 { return float64(b - a) }
	hits := d(before.Cache.Hits, after.Cache.Hits)
	misses := d(before.Cache.Misses, after.Cache.Misses)
	m["store.hit_ratio"] = orZero(ratio(hits, hits+misses))
	ih := d(before.Incr.Hits, after.Incr.Hits)
	im := d(before.Incr.Misses, after.Incr.Misses)
	ifb := d(before.Incr.Fallbacks, after.Incr.Fallbacks)
	m["incr.resume_ratio"] = orZero(ratio(ih, ih+im+ifb))
	solves := d(before.Solver.Solves, after.Solver.Solves)
	m["solver.ms_per_solve"] = orZero(ratio(d(before.Solver.InFlightNS, after.Solver.InFlightNS)/1e6, solves))
	dq := d(before.Demand.Queries, after.Demand.Queries)
	m["demand.memo_hit_ratio"] = orZero(ratio(d(before.Demand.MemoHits, after.Demand.MemoHits), dq))
	m["demand.fallback_ratio"] = orZero(ratio(d(before.Demand.Fallbacks, after.Demand.Fallbacks), dq))
	m["demand.stmts_per_query"] = orZero(ratio(d(before.Demand.StmtsActivated, after.Demand.StmtsActivated), dq))
	m["admission.queued"] = mean(queued)
	m["admission.shed"] = 0
	for _, ep := range admitted {
		ab, aa := before.Admission.Endpoints[ep], after.Admission.Endpoints[ep]
		m["admission.shed"] += d(ab.ShedQueueFull+ab.ShedDeadline, aa.ShedQueueFull+aa.ShedDeadline)
	}

	// Transport: client latency minus the server-recorded latency, per
	// request, over the endpoints the clients called.
	transport := &table{title: "Per endpoint (client vs server latency)", head: []string{"endpoint", "requests", "client mean ms", "server mean ms", "transport ms"}}
	var clientSum, serverSum, n float64
	for _, ep := range []string{"analyze", "session", "pointsto", "alias", "query"} {
		eb, ea := before.Endpoints[ep], after.Endpoints[ep]
		cnt := float64(ea.Latency.Count - eb.Latency.Count)
		srv := ea.Latency.MeanMS*float64(ea.Latency.Count) - eb.Latency.MeanMS*float64(eb.Latency.Count)
		clientSum += clientMS[ep]
		serverSum += srv
		n += cnt
		transport.add(ep, itoa(requests[ep]), f3(clientMS[ep]/float64(requests[ep])), f3(orZero(ratio(srv, cnt))), f3(orZero(ratio(clientMS[ep]-srv, cnt))))
	}
	m["server.transport_ms"] = orZero(ratio(clientSum-serverSum, n))

	self := tr.selfMS()
	layer := map[string][]float64{}
	var otherFrac []float64
	perRound := map[int]map[string]float64{}
	for i, sp := range tr.spans {
		if perRound[sp.Op] == nil {
			perRound[sp.Op] = map[string]float64{}
		}
		perRound[sp.Op][sp.Name] += self[i]
		if sp.Name == "round" {
			perRound[sp.Op]["wall"] = (sp.EndUS - sp.StartUS) / 1e3
		}
	}
	for _, r := range perRound {
		for _, name := range append([]string{"round"}, serviceSpans...) {
			layer[name] = append(layer[name], r[name])
		}
		otherFrac = append(otherFrac, r["round"]/r["wall"])
	}
	m["other_ms"] = median(layer["round"])
	m["other_frac"] = median(otherFrac)
	m["trace.overhead_ms"] = median(tracedMS) - median(untracedMS)
	for _, def := range perLayer {
		if _, ok := m[def.name]; !ok {
			m[def.name] = 0 // library layers are inside the server, out of the client's reach
		}
	}

	rounds := &table{title: "Client spans per round (median self ms of traced rounds)", head: []string{"span", "self ms"}}
	for _, name := range append(serviceSpans, "round") {
		label := name
		if name == "round" {
			label = "other (round self)"
		}
		rounds.add(label, f3(median(layer[name])))
	}
	rounds.add("round (traced)", f3(median(tracedMS)))
	rounds.add("round (untraced)", f3(median(untracedMS)))
	counters := &table{title: "Server counters over the measured window (/varz deltas)", head: []string{"metric", "value"}}
	for _, name := range serviceLayerMetrics {
		counters.add(name, f3(m[name]))
	}
	counters.add("solves", itoa(int(solves)))
	counters.add("incr hits / misses / fallbacks", fmt.Sprintf("%d / %d / %d", int(ih), int(im), int(ifb)))
	counters.add("demand queries / memo hits / fallbacks", fmt.Sprintf("%d / %d / %d", int(dq),
		int(d(before.Demand.MemoHits, after.Demand.MemoHits)), int(d(before.Demand.Fallbacks, after.Demand.Fallbacks))))
	return []*table{rounds, transport, counters}
}
