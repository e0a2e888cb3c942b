package collector

import (
	"bytes"
	"context"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"cbi/internal/corpus"
	"cbi/internal/report"
)

// TestSpeedPassEquivalence pins the hot-path rewrite (arena decode,
// batched stripe fold, run-log vector interning) to the slow path it
// replaced: the same corpus ingested report-by-report through the
// in-process API and as HTTP binary batches through the arena decoder
// must yield byte-identical /v1/scores, /v1/predictors, and snapshot
// files. Run under -race in CI so the pooled workspaces and atomic
// counters are exercised with the detector on. Both servers run one
// apply worker: the server acks a batch on enqueue, so with several
// workers two consecutive batches can fold in swapped order, and the
// byte-identical run-log check needs a defined order.
func TestSpeedPassEquivalence(t *testing.T) {
	res := testCorpus(t)
	in := res.CoreInput()

	newSrv := func(name string) (*Server, string) {
		t.Helper()
		cfg := serverConfig(t)
		cfg.Workers = 1
		cfg.SnapshotPath = filepath.Join(t.TempDir(), name+".snap")
		srv, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Shutdown(context.Background()) })
		return srv, cfg.SnapshotPath
	}

	// Reference: one report at a time through the in-process path.
	refSrv, refSnap := newSrv("ref")
	for _, r := range in.Set.Reports {
		refSrv.Ingest(r)
	}
	waitApplied(t, refSrv, int64(len(in.Set.Reports)))

	// Hot path: HTTP binary batches through the arena decoder.
	hotSrv, hotSnap := newSrv("hot")
	ts := httptest.NewServer(hotSrv.Handler())
	t.Cleanup(ts.Close)
	client := NewClient(ts.URL, in.Set.NumSites, in.Set.NumPreds,
		WithBatchSize(64), WithRetry(3, 10*time.Millisecond))
	if err := client.SubmitSet(context.Background(), in.Set); err != nil {
		t.Fatal(err)
	}
	waitApplied(t, hotSrv, int64(len(in.Set.Reports)))

	refTS := httptest.NewServer(refSrv.Handler())
	t.Cleanup(refTS.Close)

	get := func(base, path string) []byte {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d: %s", path, resp.StatusCode, buf.Bytes())
		}
		return buf.Bytes()
	}

	for _, path := range []string{
		"/v1/scores?k=0",
		"/v1/predictors?k=0&affinity=3",
		"/v1/predictors?engine=ochiai&k=25",
		"/v1/predictors?engine=logreg&k=15",
	} {
		ref := get(refTS.URL, path)
		hot := get(ts.URL, path)
		if !bytes.Equal(ref, hot) {
			t.Errorf("%s: hot-path body differs from per-report reference", path)
		}
	}

	// Snapshots from the two servers must be byte-identical: counters,
	// run-log records, and record order all survived the rewrite.
	if err := refSrv.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	if err := hotSrv.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	for _, suffix := range []string{"", corpus.RunLogPath("")} {
		refBytes, err := os.ReadFile(refSnap + suffix)
		if err != nil {
			t.Fatal(err)
		}
		hotBytes, err := os.ReadFile(hotSnap + suffix)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(refBytes, hotBytes) {
			t.Errorf("snapshot file %q differs between hot path and reference", suffix)
		}
	}

	// The interned run log must hold no more distinct vectors than
	// retained runs, and the same count on both servers.
	refStats, hotStats := refSrv.agg.LogStats(), hotSrv.agg.LogStats()
	if refStats.interned != hotStats.interned {
		t.Errorf("interned vectors differ: ref=%d hot=%d", refStats.interned, hotStats.interned)
	}
	if hotStats.interned > hotStats.retained {
		t.Errorf("interned=%d exceeds retained runs=%d", hotStats.interned, hotStats.retained)
	}
	if hotStats.interned == 0 && hotStats.retained > 0 {
		t.Error("run log retains runs but interning table is empty")
	}
}

// TestHTTPWALMatchesEncodedRecords pins the record reuse on the HTTP
// path: the WAL segment a server writes for batches posted over HTTP —
// gzip'd and plain binary, keyed and unkeyed, and a text batch — is
// byte-identical to the segment built from encodeReports' encoding of
// the same reports. Binary batches log the client's own record bytes,
// so this holds only because an accepted record is its canonical
// encoding.
func TestHTTPWALMatchesEncodedRecords(t *testing.T) {
	in, batches := crashBatches(t)
	cfg := crashConfig(t, t.TempDir())
	cfg.Workers = 1
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { srv.Shutdown(context.Background()) })

	var want []byte
	applied := 0
	for i, batch := range batches {
		set := &report.Set{NumSites: in.Set.NumSites, NumPreds: in.Set.NumPreds, Reports: batch}
		var body []byte
		gzipped := false
		switch i % 3 {
		case 0:
			body, gzipped = encodeBatch(t, in, batch), true
		case 1:
			var buf bytes.Buffer
			if err := set.MarshalBinary(&buf); err != nil {
				t.Fatal(err)
			}
			body = buf.Bytes()
		case 2:
			var buf bytes.Buffer
			if err := set.Marshal(&buf); err != nil {
				t.Fatal(err)
			}
			body = buf.Bytes()
		}
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/reports", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if gzipped {
			req.Header.Set("Content-Encoding", "gzip")
		}
		rec := &corpus.WALRecord{Kind: corpus.WALBatch, Seq: uint64(i + 1), Recs: encodeReports(new([]byte), batch)}
		if i%2 == 0 {
			rec.Kind, rec.BatchID, rec.Key = corpus.WALKeyedBatch, batchID(i), corpus.KeyHash(batchID(i))
			req.Header.Set("X-CBI-Batch-ID", rec.BatchID)
		}
		if want, err = corpus.AppendWALRecord(want, rec, in.Set.NumSites, in.Set.NumPreds); err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("batch %d: status %d", i, resp.StatusCode)
		}
		applied += len(batch)
	}
	waitApplied(t, srv, int64(applied))

	seg, err := os.ReadFile(corpus.WALSegmentName(cfg.WALPath, 1))
	if err != nil {
		t.Fatal(err)
	}
	hdr := bytes.IndexByte(seg, '\n') + 1
	if got := seg[hdr:]; !bytes.Equal(got, want) {
		t.Fatalf("WAL records differ from encodeReports' encoding: %d bytes, want %d", len(got), len(want))
	}
}

// TestFlushFoldBitsetEquivalence checks the batched fold's bitset
// flush against naive per-id adds: random ± deltas (including ids that
// return to zero and are touched again, id 0, dims-1, and ids on each
// side of every stripe boundary) over dims that are and are not
// multiples of 64, with one and several stripes. Several goroutines
// flush into the same counters at once, each through its own scratch,
// so under -race an id written without its own stripe's lock shows up.
// Every counter must end at its start plus all adds, and every delta
// and bitset word must be zero after each flush.
func TestFlushFoldBitsetEquivalence(t *testing.T) {
	const flushers, rounds = 3, 20
	for _, dims := range []int{1, 63, 64, 65, 200, 1031} {
		for _, stripes := range []int{1, 3, 8} {
			block := blockFor(dims, stripes)
			special := []int32{0, int32(dims - 1)}
			for b := block; b < dims; b += block {
				special = append(special, int32(b-1), int32(b))
			}
			var dst, want [4][]int64 // fSite, sSite, fPred, sPred
			for k := range dst {
				dst[k] = make([]int64, dims)
				for id := range dst[k] {
					dst[k][id] = int64(id % 7)
				}
				want[k] = slices.Clone(dst[k])
			}
			mus := make([]stripeMutex, stripes)
			adds := make([][4][]int64, flushers)
			var wg sync.WaitGroup
			for g := range adds {
				for k := range adds[g] {
					adds[g][k] = make([]int64, dims)
				}
				wg.Add(1)
				go func(rng *rand.Rand, add *[4][]int64) {
					defer wg.Done()
					randomIDs := func() []int32 {
						seen := map[int32]bool{}
						for _, id := range special {
							if rng.Intn(2) == 0 {
								seen[id] = true
							}
						}
						for k := rng.Intn(dims/4 + 2); k > 0; k-- {
							seen[int32(rng.Intn(dims))] = true
						}
						ids := make([]int32, 0, len(seen))
						for id := range seen {
							ids = append(ids, id)
						}
						slices.Sort(ids)
						return ids
					}
					words := (dims + 63) / 64
					sc := &foldScratch{
						fSite: make([]int64, dims), sSite: make([]int64, dims),
						fPred: make([]int64, dims), sPred: make([]int64, dims),
						tfSite: make([]uint64, words), tsSite: make([]uint64, words),
						tfPred: make([]uint64, words), tsPred: make([]uint64, words),
					}
					for round := 0; round < rounds; round++ {
						for run := rng.Intn(12); run >= 0; run-- {
							failed := rng.Intn(2) == 0
							sites, preds := randomIDs(), randomIDs()
							// +1, then sometimes -1 (the ids return to zero)
							// and +1 again (touched once more), or a plain -1.
							deltas := []int64{+1}
							switch rng.Intn(3) {
							case 0:
								deltas = []int64{+1, -1, +1}
							case 1:
								deltas = []int64{-1}
							}
							ws, wp := add[1], add[3]
							if failed {
								ws, wp = add[0], add[2]
							}
							for _, d := range deltas {
								sc.add(failed, sites, preds, d)
								for _, id := range sites {
									ws[id] += d
								}
								for _, id := range preds {
									wp[id] += d
								}
							}
						}
						flushFold(dst[0], sc.fSite, sc.tfSite, mus, block)
						flushFold(dst[1], sc.sSite, sc.tsSite, mus, block)
						flushFold(dst[2], sc.fPred, sc.tfPred, mus, block)
						flushFold(dst[3], sc.sPred, sc.tsPred, mus, block)
						for k, d := range [][]int64{sc.fSite, sc.sSite, sc.fPred, sc.sPred} {
							if slices.ContainsFunc(d, func(v int64) bool { return v != 0 }) {
								t.Errorf("dims=%d stripes=%d round %d: delta array %d not zeroed", dims, stripes, round, k)
								return
							}
						}
						for k, w := range [][]uint64{sc.tfSite, sc.tsSite, sc.tfPred, sc.tsPred} {
							if slices.ContainsFunc(w, func(v uint64) bool { return v != 0 }) {
								t.Errorf("dims=%d stripes=%d round %d: bitset %d not zeroed", dims, stripes, round, k)
								return
							}
						}
					}
				}(rand.New(rand.NewSource(int64(14*dims+g))), &adds[g])
			}
			wg.Wait()
			for k := range want {
				for _, add := range adds {
					for id, d := range add[k] {
						want[k][id] += d
					}
				}
				if !slices.Equal(dst[k], want[k]) {
					t.Fatalf("dims=%d stripes=%d: array %d differs from per-id adds", dims, stripes, k)
				}
			}
			for s := range mus {
				if !mus[s].TryLock() {
					t.Fatalf("dims=%d stripes=%d: stripe %d left locked", dims, stripes, s)
				}
			}
		}
	}
}
