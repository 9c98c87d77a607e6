package server

import (
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/store"
)

// histogram is a fixed-bucket latency histogram: bucket i counts requests
// with latency < 1ms·2^i, plus an overflow bucket. Cheap enough to sit on
// every request, precise enough for a /varz dashboard.
type histogram struct {
	mu      sync.Mutex
	buckets [13]int64 // <1ms, <2ms, <4ms, ..., <1s, <2s, >=2s
	count   int64
	sumNS   int64
}

// bucketLabels mirror the buckets field (upper bounds, cumulative style).
var bucketLabels = []string{
	"le_1ms", "le_2ms", "le_4ms", "le_8ms", "le_16ms", "le_32ms",
	"le_64ms", "le_128ms", "le_256ms", "le_512ms", "le_1s", "le_2s", "inf",
}

func (h *histogram) observe(d time.Duration) {
	idx := 0
	for bound := time.Millisecond; idx < len(h.buckets)-1 && d >= bound; idx++ {
		bound *= 2
	}
	h.mu.Lock()
	h.buckets[idx]++
	h.count++
	h.sumNS += d.Nanoseconds()
	h.mu.Unlock()
}

// HistogramJSON is the wire form of a latency histogram.
type HistogramJSON struct {
	Count   int64            `json:"count"`
	MeanMS  float64          `json:"mean_ms"`
	Buckets map[string]int64 `json:"buckets"`
}

func (h *histogram) snapshot() HistogramJSON {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := HistogramJSON{Count: h.count, Buckets: make(map[string]int64, len(bucketLabels))}
	for i, label := range bucketLabels {
		out.Buckets[label] = h.buckets[i]
	}
	if h.count > 0 {
		out.MeanMS = float64(h.sumNS) / float64(h.count) / 1e6
	}
	return out
}

// endpointStats aggregates one endpoint's traffic.
type endpointStats struct {
	requests  atomic.Int64
	errors4xx atomic.Int64
	errors5xx atomic.Int64
	canceled  atomic.Int64 // 499s
	latency   histogram
}

// EndpointJSON is the wire form of one endpoint's stats.
type EndpointJSON struct {
	Requests  int64         `json:"requests"`
	Errors4xx int64         `json:"errors_4xx"`
	Errors5xx int64         `json:"errors_5xx"`
	Canceled  int64         `json:"canceled_499"`
	Latency   HistogramJSON `json:"latency"`
}

// Varz is the /varz document: expvar-flavored counters covering the cache,
// the solver, the admission layer, and per-endpoint traffic.
type Varz struct {
	UptimeSeconds float64                 `json:"uptime_seconds"`
	Cache         store.Stats             `json:"cache"`
	Solver        SolverVarz              `json:"solver"`
	Demand        DemandVarz              `json:"demand"`
	Incr          IncrVarz                `json:"incr"`
	Admission     AdmissionVarz           `json:"admission"`
	Chaos         chaos.Stats             `json:"chaos"`
	Endpoints     map[string]EndpointJSON `json:"endpoints"`
}

// DemandVarz aggregates the warm-session demand engine's daemon-lifetime
// counters (resident sessions plus everything already evicted).
type DemandVarz struct {
	Sessions int64 `json:"sessions"` // warm sessions currently resident
	Created  int64 `json:"created"`  // sessions ever created
	Evicted  int64 `json:"evicted"`  // sessions dropped by the LRU cap

	Queries        int64 `json:"queries"`         // PointsTo/MayAlias queries answered
	MemoHits       int64 `json:"memo_hits"`       // queries fully covered by earlier slices
	Fallbacks      int64 `json:"fallbacks"`       // budget trips rerouted to the exhaustive solver
	FullSolves     int64 `json:"full_solves"`     // exhaustive solves sessions had to run
	StmtsActivated int64 `json:"stmts_activated"` // statements pulled into demand slices
	CellsVisited   int64 `json:"cells_visited"`   // cells interned by demand slices
}

// IncrVarz aggregates the incremental re-analysis layer: graph residency
// and how base-key requests were served.
type IncrVarz struct {
	Graphs  int64 `json:"graphs"`  // constraint graphs currently resident
	Stored  int64 `json:"stored"`  // graphs ever registered
	Evicted int64 `json:"evicted"` // graphs dropped by the LRU cap

	Hits      int64 `json:"hits"`      // warm delta solves served
	Misses    int64 `json:"misses"`    // base named but no usable graph
	Fallbacks int64 `json:"fallbacks"` // resumes that fell back to a cold solve
}

// SolverVarz aggregates the daemon-lifetime solver work.
type SolverVarz struct {
	Solves     int64 `json:"solves"`      // analyses actually run (cache misses that solved)
	Steps      int64 `json:"steps"`       // total worklist steps across those solves
	Incomplete int64 `json:"incomplete"`  // solves that stopped at a resource limit
	Rejected   int64 `json:"rejected"`    // inputs refused (parse/sema)
	Canceled   int64 `json:"canceled"`    // solves abandoned by cancellation
	InFlightNS int64 `json:"inflight_ns"` // total wall time spent solving

	// Every solver counter summed over those solves (peak_live_bytes
	// keeps the maximum). MarshalJSON writes each under its declared name,
	// zero or not.
	core.WaveStats `json:"-"`
}

// MarshalJSON writes the fields above, then every solver counter.
func (v SolverVarz) MarshalJSON() ([]byte, error) {
	type fields SolverVarz
	out, err := json.Marshal(fields(v))
	if err != nil {
		return nil, err
	}
	counters := make(map[string]int)
	for _, c := range core.Counters {
		if p := c.Field(nil, &v.WaveStats); p != nil {
			counters[c.Name] = *p
		}
	}
	rest, err := json.Marshal(counters)
	if err != nil {
		return nil, err
	}
	return append(append(out[:len(out)-1], ','), rest[1:]...), nil
}

// UnmarshalJSON reads the fields above and every solver counter.
func (v *SolverVarz) UnmarshalJSON(data []byte) error {
	type fields SolverVarz
	if err := json.Unmarshal(data, (*fields)(v)); err != nil {
		return err
	}
	return json.Unmarshal(data, &v.WaveStats)
}

// statusRecorder captures the response status for metrics.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (w *statusRecorder) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// chaosWriter redirects the response body through a chaos-wrapped writer
// (slow-client simulation) while header writes stay on the recorder.
type chaosWriter struct {
	*statusRecorder
	body io.Writer
}

func (w *chaosWriter) Write(p []byte) (int, error) { return w.body.Write(p) }

// instrument wraps a handler with per-endpoint counting and latency
// recording under the given name, plus the chaos slow-writer when one is
// configured.
func (s *Server) instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	ep := &endpointStats{}
	s.endpoints[name] = ep
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		var hw http.ResponseWriter = rec
		if s.cfg.Chaos != nil {
			if body := s.cfg.Chaos.WrapWriter(rec); body != io.Writer(rec) {
				hw = &chaosWriter{statusRecorder: rec, body: body}
			}
		}
		h(hw, r)
		ep.requests.Add(1)
		switch {
		case rec.status == StatusClientClosedRequest:
			ep.canceled.Add(1)
		case rec.status >= 500:
			ep.errors5xx.Add(1)
		case rec.status >= 400:
			ep.errors4xx.Add(1)
		}
		ep.latency.observe(time.Since(start))
	}
}
