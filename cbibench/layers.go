package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"cbi/internal/collector"
	"cbi/internal/core"
	"cbi/internal/corpus"
	"cbi/internal/report"
)

// gunzip returns a batch body's raw encoding.
func gunzip(body []byte) ([]byte, error) {
	zr, err := gzip.NewReader(bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer zr.Close()
	return io.ReadAll(zr)
}

// replayWrite times the write path's layers from outside, on the
// traced step's batches: Arena.Decode of every sent body (checking it
// round-trips), Server.IngestBatch on a side collector whose window is
// full (WAL off, so this is the fold and evict alone), and WAL.Append
// into a side segment.
func replayWrite(o options, res *result, g *gen, batches []*batch, runLog int) error {
	var arena report.Arena
	sets := make([]*report.Set, len(batches))
	var decodeUS []float64
	var allocs uint64
	var wire int
	for i, b := range batches {
		raw, err := gunzip(b.body)
		if err != nil {
			return err
		}
		wire += len(b.body)
		m0 := mallocs()
		start := time.Now()
		set, lease, err := arena.Decode(bytes.NewReader(raw))
		d := time.Since(start)
		allocs += mallocs() - m0
		if err != nil {
			return failCheck("layer-decode-roundtrip", "batch %s: %v", b.id, err)
		}
		decodeUS = append(decodeUS, d.Seconds()*1e6)
		var again bytes.Buffer
		if err := set.MarshalBinary(&again); err != nil {
			return err
		}
		lease.Release()
		if !bytes.Equal(again.Bytes(), raw) {
			return failCheck("layer-decode-roundtrip", "batch %s re-encodes to %d bytes, sent %d", b.id, again.Len(), len(raw))
		}
		if sets[i], err = report.UnmarshalBinary(bytes.NewReader(raw)); err != nil {
			return err
		}
	}
	n := len(batches)
	res.set("report.decode_us_per_batch", median(decodeUS), n)
	res.set("report.decode_allocs_per_batch", float64(allocs)/float64(n), n)
	res.set("report.wire_bytes_per_report", float64(wire)/float64(n*batchSize), n*batchSize)

	side, err := collector.New(collector.Config{
		NumSites: g.numSites(), NumPreds: g.numPreds(), SiteOf: g.siteOf,
		Fingerprint: g.fingerprint(), RunLogSize: runLog,
	})
	if err != nil {
		return err
	}
	defer side.Close()
	f := g.fork(1 << 20)
	reps := make([]*report.Report, batchSize)
	for k := range reps {
		reps[k] = &report.Report{}
	}
	for filled := 0; filled < runLog+4*batchSize; filled += batchSize {
		for _, r := range reps {
			f.reportInto(r)
		}
		if err := side.IngestBatch("", reps); err != nil {
			return err
		}
	}
	ev0 := side.StatsNow().RunLogEvicted
	var foldUS []float64
	allocs = 0
	for i, set := range sets {
		m0 := mallocs()
		start := time.Now()
		err := side.IngestBatch(batches[i].id, set.Reports)
		d := time.Since(start)
		allocs += mallocs() - m0
		if err != nil {
			return err
		}
		foldUS = append(foldUS, d.Seconds()*1e6/batchSize)
	}
	if ev := side.StatsNow().RunLogEvicted - ev0; ev != int64(n*batchSize) {
		return failCheck("layer-fold-evicts", "side collector evicted %d runs for %d folded", ev, n*batchSize)
	}
	res.set("collector.fold_us_per_report", median(foldUS), n*batchSize)
	res.set("collector.fold_allocs_per_report", float64(allocs)/float64(n*batchSize), n*batchSize)

	w, err := corpus.CreateWALSegment(filepath.Join(o.workdir, "side.wal"), g.numSites(), g.numPreds(), g.fingerprint())
	if err != nil {
		return err
	}
	defer w.Close()
	size0 := w.Size()
	var walUS []float64
	for i, set := range sets {
		start := time.Now()
		err := w.Append(&corpus.WALRecord{Kind: corpus.WALBatch, Seq: uint64(i + 1), BatchID: batches[i].id, Reports: set.Reports}, g.numSites(), g.numPreds())
		d := time.Since(start)
		if err != nil {
			return err
		}
		walUS = append(walUS, d.Seconds()*1e6)
	}
	res.set("corpus.wal_append_us_per_batch", median(walUS), n)
	res.set("corpus.wal_bytes_per_report", float64(w.Size()-size0)/float64(n*batchSize), n*batchSize)
	return nil
}

// internedRatio sums the shards' interned membership vectors and
// retained runs (cbi_runlog_interned_vectors over runlog_runs).
func internedRatio(t *topo) (interned, retained int64) {
	for _, s := range t.shards {
		retained += int64(s.StatsNow().RunLogRuns)
		var buf bytes.Buffer
		s.Metrics().WritePrometheus(&buf)
		interned += int64(promValue(buf.Bytes(), "cbi_runlog_interned_vectors"))
	}
	return interned, retained
}

// promValue returns an unlabelled series' value from Prometheus text.
func promValue(text []byte, name string) float64 {
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err == nil {
				return v
			}
		}
	}
	return 0
}

// rawPerReport and wirePerReport are the batches' mean encoded and
// gzip bytes per report.
func rawPerReport(batches []*batch) float64 {
	raw := 0
	for _, b := range batches {
		raw += b.rawBytes
	}
	return float64(raw) / float64(len(batches)*batchSize)
}

func wirePerReport(batches []*batch) float64 {
	wire := 0
	for _, b := range batches {
		wire += len(b.body)
	}
	return float64(wire) / float64(len(batches)*batchSize)
}

// replayRead rebuilds each shard's state from the snapshot answers the
// gateway pulled (a full segment, then deltas), timing
// ReadDeltaSegment + ApplyDelta on the deltas pulled while spans were
// recorded; then it scores the union window those states end at with
// both engines, as the gateway does per query.
func replayRead(res *result, g *gen, caps []captured, shardOf map[string]int) error {
	type view struct {
		snap   *corpus.AggSnapshot
		window []*report.Report
	}
	views := make([]view, numShards)
	var applyMS, pullBytes []float64
	for _, c := range caps {
		s, ok := shardOf[c.host]
		if !ok {
			continue
		}
		v := &views[s]
		if !c.delta {
			zr, err := gzip.NewReader(bytes.NewReader(c.body))
			if err != nil {
				return err
			}
			snap, set, err := corpus.ReadMergeSegment(zr)
			if err != nil {
				return err
			}
			v.snap, v.window = snap, set.Reports
			continue
		}
		if v.snap == nil {
			return failCheck("layer-delta-chain", "shard %d: delta before any full state", s)
		}
		start := time.Now()
		zr, err := gzip.NewReader(bytes.NewReader(c.body))
		if err != nil {
			return err
		}
		seg, err := corpus.ReadDeltaSegment(zr)
		if err != nil {
			return err
		}
		window, err := corpus.ApplyDelta(v.snap, v.window, seg)
		d := time.Since(start)
		if err != nil {
			return failCheck("layer-delta-chain", "shard %d: %v", s, err)
		}
		v.window = window
		if c.timed {
			applyMS = append(applyMS, d.Seconds()*1e3)
			pullBytes = append(pullBytes, float64(len(c.body)))
		}
	}
	res.set("corpus.delta_apply_ms_p50", median(applyMS), len(applyMS))
	res.set("corpus.delta_bytes_per_pull", mean(pullBytes), len(pullBytes))

	union := &report.Set{NumSites: g.numSites(), NumPreds: g.numPreds()}
	for _, v := range views {
		union.Reports = append(union.Reports, v.window...)
	}
	in := core.Input{Set: union, SiteOf: g.siteOf}
	ochiai, ok := core.EngineByName("ochiai")
	if !ok {
		return fmt.Errorf("ochiai engine not registered")
	}
	const reps = 5
	var elim, och []float64
	for i := 0; i < reps; i++ {
		start := time.Now()
		collector.BuildPredictors(in, 12, 3)
		elim = append(elim, time.Since(start).Seconds()*1e3)
		start = time.Now()
		ochiai.Score(in, 12)
		och = append(och, time.Since(start).Seconds()*1e3)
	}
	res.set("core.score_ms_p50.eliminate", median(elim), reps)
	res.set("core.score_ms_p50.ochiai", median(och), reps)
	return nil
}
