package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one write
// share the batch id as their trace id; spans of one read share the
// query id. Times are nanoseconds since the tracer started.
type span struct {
	Name   string `json:"name"`
	Trace  string `json:"trace"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the causing span, -1 for roots
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced configuration: wrap returns handlers unchanged.
type tracer struct {
	t0 time.Time
	on atomic.Bool // spans are recorded only while on
	// capture keeps the bodies of the shards' GET /v1/snapshot answers
	// (the gateway's full and delta pulls) for the delta-apply replay.
	capture  atomic.Bool
	mu       sync.Mutex
	spans    []span
	captures []captured
}

// captured is one shard snapshot answer as the gateway received it.
type captured struct {
	host  string // the shard's listener address
	delta bool   // a delta segment, else a full merge segment
	body  []byte // gzip body
	timed bool   // served while spans were recorded
}

// teeWriter copies a response body aside as it is written.
type teeWriter struct {
	http.ResponseWriter
	buf bytes.Buffer
}

func (w *teeWriter) Write(p []byte) (int, error) {
	w.buf.Write(p)
	return w.ResponseWriter.Write(p)
}

// newTracer returns a tracer with recording off.
func newTracer() *tracer { return &tracer{t0: time.Now()} }

// queryHeader carries the benchmark's per-query id to the gateway.
const queryHeader = "X-Bench-Query-ID"

// wrap records a span around every request h serves. Span names are
// tier.endpoint, e.g. "router.reports" or "collector.snapshot".
func (t *tracer) wrap(tier string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		on := t.on.Load()
		var tee *teeWriter
		if tier == "collector" && r.URL.Path == "/v1/snapshot" && t.capture.Load() {
			tee = &teeWriter{ResponseWriter: w}
			w = tee
		}
		if !on && tee == nil {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Since(t.t0)
		h.ServeHTTP(w, r)
		end := time.Since(t.t0)
		if tee != nil {
			c := captured{host: r.Host, body: tee.buf.Bytes(), timed: on,
				delta: strings.HasPrefix(tee.Header().Get("Content-Type"), "application/x-cbi-delta")}
			t.mu.Lock()
			t.captures = append(t.captures, c)
			t.mu.Unlock()
		}
		if !on {
			return
		}
		name := tier + "." + strings.TrimPrefix(r.URL.Path, "/v1/")
		if r.URL.Path == "/v1/predictors" {
			name += "." + r.URL.Query().Get("engine")
		}
		trace := r.Header.Get("X-CBI-Batch-ID")
		if trace == "" {
			trace = r.Header.Get(queryHeader)
		}
		t.mu.Lock()
		t.spans = append(t.spans, span{Name: name, Trace: trace, Start: int64(start), End: int64(end), Parent: -1})
		t.mu.Unlock()
	})
}

// link assigns parents: a collector write span's parent is the router
// span with the same batch id, and a shard snapshot-serve span's parent
// is the gateway span whose interval covers it (the benchmark's reader
// is the gateway's only client, so containment identifies the cause).
func (t *tracer) link() {
	t.mu.Lock()
	defer t.mu.Unlock()
	routerBy := map[string]int{}
	var gateway []int
	for i, s := range t.spans {
		switch {
		case s.Name == "router.reports" && s.Trace != "":
			routerBy[s.Trace] = i
		case strings.HasPrefix(s.Name, "gateway."):
			gateway = append(gateway, i)
		}
	}
	sort.Slice(gateway, func(a, b int) bool { return t.spans[gateway[a]].Start < t.spans[gateway[b]].Start })
	for i := range t.spans {
		s := &t.spans[i]
		switch s.Name {
		case "collector.reports":
			if p, ok := routerBy[s.Trace]; ok {
				s.Parent = p
			}
		case "collector.snapshot":
			k := sort.Search(len(gateway), func(k int) bool { return t.spans[gateway[k]].Start > s.Start }) - 1
			if k >= 0 && t.spans[gateway[k]].End >= s.End {
				s.Parent = gateway[k]
				s.Trace = t.spans[gateway[k]].Trace
			}
		}
	}
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanStats derives the span-based per-layer samples: handler self
// times, router-to-collector forward waits and gateway self times.
type spanStats struct {
	routerAccept  []float64 // µs
	forwardWait   []float64 // ms
	collAccept    []float64 // µs
	snapshotServe []float64 // ms
	gatewaySelf   map[string][]float64
}

func (t *tracer) stats() spanStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := spanStats{gatewaySelf: map[string][]float64{}}
	children := map[int][][2]int64{}
	for _, s := range t.spans {
		d := s.End - s.Start
		switch {
		case s.Name == "router.reports":
			st.routerAccept = append(st.routerAccept, float64(d)/1e3)
		case s.Name == "collector.reports":
			st.collAccept = append(st.collAccept, float64(d)/1e3)
			if s.Parent >= 0 {
				st.forwardWait = append(st.forwardWait, float64(s.Start-t.spans[s.Parent].End)/1e6)
			}
		case s.Name == "collector.snapshot":
			st.snapshotServe = append(st.snapshotServe, float64(d)/1e6)
			if s.Parent >= 0 {
				children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
			}
		}
	}
	for i, s := range t.spans {
		if engine, ok := strings.CutPrefix(s.Name, "gateway.predictors."); ok {
			self := s.End - s.Start - covered(children[i])
			st.gatewaySelf[engine] = append(st.gatewaySelf[engine], float64(self)/1e6)
		}
	}
	return st
}

// covered returns the length of the union of the intervals: the shard
// serves of one fan-out overlap, and only the time at least one of
// them runs is child time.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, end int64
	for k, x := range iv {
		if k == 0 || x[0] > end {
			total += x[1] - x[0]
			end = x[1]
		} else if x[1] > end {
			total += x[1] - end
			end = x[1]
		}
	}
	return total
}
