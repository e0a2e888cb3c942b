package collector

import (
	"context"
	"math/rand"
	"net/http/httptest"
	"runtime"
	"slices"
	"testing"
	"time"

	"cbi/internal/corpus"
	"cbi/internal/report"
)

// assertExactRecords fails unless every retained run-log record is an
// exact-length allocation: a record whose capacity exceeds its length
// pins encode-buffer slack for as long as the run stays in the window.
func assertExactRecords(t *testing.T, what string, srv *Server) {
	t.Helper()
	recs, _, ok := srv.agg.LogView()
	if !ok || len(recs) == 0 {
		t.Fatalf("%s: no retained records", what)
	}
	for i, rec := range recs {
		if cap(rec) != len(rec) {
			t.Fatalf("%s: record %d has cap %d for len %d", what, i, cap(rec), len(rec))
		}
	}
}

// TestRunLogRecordsExactLength checks every way a run enters the log —
// HTTP batches with the WAL on, IngestBatch with and without it,
// Ingest, a merge, checkpoint restore and WAL replay — retains exact-
// length records.
func TestRunLogRecordsExactLength(t *testing.T) {
	in := testCorpus(t).CoreInput()
	set := &report.Set{NumSites: in.Set.NumSites, NumPreds: in.Set.NumPreds, Reports: in.Set.Reports[:240]}
	newSrv := func(cfg Config) *Server {
		t.Helper()
		srv, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		return srv
	}

	dir := t.TempDir()
	walSrv := newSrv(crashConfig(t, dir))
	ts := httptest.NewServer(walSrv.Handler())
	t.Cleanup(ts.Close)
	client := NewClient(ts.URL, set.NumSites, set.NumPreds, WithBatchSize(40))
	if err := client.SubmitSet(context.Background(), set); err != nil {
		t.Fatal(err)
	}
	waitApplied(t, walSrv, int64(len(set.Reports)))
	assertExactRecords(t, "HTTP with WAL", walSrv)

	// Boot a copy of the un-checkpointed state: the window comes back
	// through WAL replay alone.
	replayed := newSrv(crashConfig(t, copyTree(t, dir)))
	if replayed.StatsNow().WALReplayed == 0 {
		t.Fatal("no WAL records replayed")
	}
	assertExactRecords(t, "WAL replay", replayed)

	// Checkpoint (which prunes the WAL) and boot a copy: the window
	// comes back from the checkpoint alone.
	if err := walSrv.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	restored := newSrv(crashConfig(t, copyTree(t, dir)))
	if got := restored.StatsNow().WALReplayed; got != 0 {
		t.Fatalf("checkpoint restore replayed %d WAL records, want 0", got)
	}
	assertExactRecords(t, "checkpoint restore", restored)

	walBatch := newSrv(crashConfig(t, t.TempDir()))
	plain := newSrv(serverConfig(t))
	single := newSrv(serverConfig(t))
	for i := 0; i < len(set.Reports); i += 40 {
		if err := walBatch.IngestBatch(batchID(i), set.Reports[i:i+40]); err != nil {
			t.Fatal(err)
		}
		if err := plain.IngestBatch(batchID(i), set.Reports[i:i+40]); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range set.Reports {
		single.Ingest(r)
	}
	assertExactRecords(t, "IngestBatch with WAL", walBatch)
	assertExactRecords(t, "IngestBatch", plain)
	assertExactRecords(t, "Ingest", single)

	merged := newSrv(serverConfig(t))
	mts := httptest.NewServer(merged.Handler())
	t.Cleanup(mts.Close)
	raw, _, _ := fetchSegment(t, ts)
	if code, _ := postMerge(t, mts, raw, "merge-1"); code != 202 {
		t.Fatalf("POST /v1/merge = %d", code)
	}
	assertExactRecords(t, "merge", merged)
}

// randomReport draws a report with len(sites) ≈ density·numSites and
// preds spread across the predicate space — or, one time in four,
// across its first eighth plus the last id — so gaps between ids range
// from one to most of the space: with numPreds ≥ 20000, one-, two- and
// three-byte varint deltas all occur.
func randomReport(rng *rand.Rand, numSites, numPreds int, density float64) *report.Report {
	r := &report.Report{Failed: rng.Intn(3) == 0}
	for id := 0; id < numSites; id++ {
		if rng.Float64() < density {
			r.ObservedSites = append(r.ObservedSites, int32(id))
		}
	}
	limit := numPreds
	if rng.Intn(4) == 0 {
		limit = numPreds / 8
	}
	for id := rng.Intn(64); id < limit; id += 1 + rng.Intn(int(4/density)) {
		r.TruePreds = append(r.TruePreds, int32(id))
	}
	if limit < numPreds {
		r.TruePreds = append(r.TruePreds, int32(numPreds-1))
	}
	return r
}

// TestRunLogHeapPerRun pins the run log's memory bill: after a GC, the
// heap a window of distinct runs holds is at most 1.2× their encoded
// bytes plus a fixed per-slot overhead (ring slot, intern entry, table
// slot). A second copy of each record — an intern key, or the worst-
// case slack of an adopted encode buffer — breaks the bound.
func TestRunLogHeapPerRun(t *testing.T) {
	const (
		runs               = 2048
		numSites           = 2000
		numPreds           = 20000
		perSlot            = 256
		numSlack, denSlack = 6, 5 // 1.2 = 6/5
	)
	rng := rand.New(rand.NewSource(1))
	src := make([]*report.Report, runs)
	for i := range src {
		src[i] = randomReport(rng, numSites, numPreds, 0.3)
	}
	scratch := make([]byte, 0, 64<<10)
	evicted := make([][]byte, 0, 4)

	// Two collections before each reading: the first only moves pooled
	// workspaces to the victim cache, the second frees them.
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	l := newRunLog(runs, 0)
	encoded := 0
	for _, r := range src {
		scratch = report.AppendRecord(scratch[:0], r)
		_, evicted = l.append(scratch, corpus.NoKey, 0, evicted[:0])
		encoded += len(scratch)
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(l)
	runtime.KeepAlive(src)

	if got := l.internedCount(); got != runs {
		t.Fatalf("interned %d distinct vectors, want %d", got, runs)
	}
	live := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	bound := int64(encoded)*numSlack/denSlack + runs*perSlot
	t.Logf("%d runs, %d encoded bytes (%.0f per run), %d live heap bytes (%.0f per run)",
		runs, encoded, float64(encoded)/runs, live, float64(live)/runs)
	if live > bound {
		t.Fatalf("run log holds %d heap bytes for %d encoded bytes in %d runs; bound is %d (1.2x + %d per slot)",
			live, encoded, runs, bound, perSlot)
	}
}

// TestRunLogInternCollisions forces every record onto one hash value,
// so the intern table is a single collision chain: distinct records
// must still intern separately, equal records must share one canonical
// copy, and releasing entries at the head, middle and tail of the
// chain must unlink exactly the right one.
func TestRunLogInternCollisions(t *testing.T) {
	l := newRunLog(16, 0)
	l.hash = func([]byte) uint64 { return 42 }
	enc := func(id int32) []byte {
		return report.AppendRecord(nil, &report.Report{TruePreds: []int32{id}})
	}
	var evicted [][]byte
	push := func(id int32) []byte {
		var canon []byte
		canon, evicted = l.append(enc(id), corpus.NoKey, 0, evicted[:0])
		return canon
	}
	check := func(wantDistinct int, wantIDs ...int32) {
		t.Helper()
		if got := l.internedCount(); got != wantDistinct {
			t.Fatalf("interned %d, want %d", got, wantDistinct)
		}
		if len(l.interned) > 1 {
			t.Fatalf("forced hash spread over %d table keys", len(l.interned))
		}
		// The chain holds exactly the distinct records, and every
		// retained run's entry is reachable through it.
		chain := 0
		for e := l.interned[42]; e != nil; e = e.next {
			chain++
		}
		if chain != wantDistinct {
			t.Fatalf("collision chain has %d entries, want %d", chain, wantDistinct)
		}
		for i := 0; i < l.n; i++ {
			want, found := l.ents[l.at(i)], false
			for e := l.interned[42]; e != nil; e = e.next {
				found = found || e == want
			}
			if !found {
				t.Fatalf("retained run %d's entry is not on the chain", i)
			}
		}
		var got []int32
		for _, rec := range l.records() {
			var ids report.RecordIDs
			if _, err := ids.Decode(rec, 0, 100); err != nil {
				t.Fatal(err)
			}
			got = append(got, ids.Preds[0])
		}
		if !slices.Equal(got, wantIDs) {
			t.Fatalf("window %v, want %v", got, wantIDs)
		}
	}

	a1, b, c := push(1), push(2), push(3)
	a2 := push(1)
	if &a1[0] != &a2[0] {
		t.Fatal("equal records on one chain interned twice")
	}
	if &a1[0] == &b[0] || &b[0] == &c[0] {
		t.Fatal("distinct records on one chain shared a canonical copy")
	}
	check(3, 1, 2, 3, 1)

	// The chain is 3 -> 2 -> 1 (newest first). Evicting the oldest run
	// drops one of record 1's two references: nothing unlinks.
	l.evictOldest()
	check(3, 2, 3, 1)
	// Middle of the chain.
	if n := len(l.remove([][]byte{enc(2)})); n != 1 {
		t.Fatalf("removed %d runs of record 2, want 1", n)
	}
	check(2, 3, 1)
	// Head of the chain.
	if n := len(l.remove([][]byte{enc(3)})); n != 1 {
		t.Fatalf("removed %d runs of record 3, want 1", n)
	}
	check(1, 1)
	// A record re-interned after its entry unlinked gets a fresh copy
	// at the head; then the tail goes.
	push(2)
	push(3)
	check(3, 1, 2, 3)
	l.evictOldest()
	check(2, 2, 3)
	if n := len(l.remove([][]byte{enc(1)})); n != 0 {
		t.Fatalf("removed %d runs of an unretained record", n)
	}
	l.evictOldest()
	l.evictOldest()
	check(0)
	if len(l.interned) != 0 {
		t.Fatalf("empty log left %d table keys", len(l.interned))
	}
}

// recountByDecode is the decode-and-bump reference for the counters:
// every retained record decoded through report.ReadRecord and added
// up. Every mutation in TestByteWalkUncountEquivalence keeps the
// counters equal to exactly the retained window, so this is what the
// byte-walk un-count must reproduce.
func recountByDecode(t *testing.T, a *shardedAgg) *corpus.AggSnapshot {
	t.Helper()
	recs, _, _ := a.LogView()
	reports, err := decodeRecords(recs, a.numSites, a.numPreds)
	if err != nil {
		t.Fatal(err)
	}
	want := corpus.NewAggSnapshot(a.numSites, a.numPreds)
	for _, r := range reports {
		want.ApplyReport(r, +1)
	}
	return want
}

// TestByteWalkUncountEquivalence drives every un-counting path —
// batched and single applies under the count, byte and age caps, age
// sweeps, removals and merges — with random failing and passing runs
// whose id gaps need multi-byte varints, and checks after every step
// that the counters equal the decode-and-bump recount of the window.
func TestByteWalkUncountEquivalence(t *testing.T) {
	const numSites, numPreds = 300, 20000
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		clock := &fakeClock{now: time.Unix(1_700_000_000, 0)}
		a := newShardedAgg(numSites, numPreds, 4, 48, 24<<10, time.Minute, clock.Now)
		draw := func() *report.Report {
			// Mostly small runs, sometimes a large one: a large append
			// has to evict several small runs to get under the byte cap.
			density := 0.01
			if rng.Intn(8) == 0 {
				density = 0.5
			}
			return randomReport(rng, numSites, numPreds, density)
		}
		var multiEvict, ageEvict, removed int
		for step := 0; step < 200; step++ {
			ev0 := a.LogStats().evicted
			switch op := rng.Intn(10); {
			case op < 4:
				reports := make([]*report.Report, 1+rng.Intn(30))
				for i := range reports {
					reports[i] = draw()
				}
				var encoded [][]byte
				if rng.Intn(2) == 0 {
					encoded = encodeReports(new([]byte), reports)
				}
				a.ApplyBatch(reports, encoded, uint64(rng.Int63()), nil)
			case op < 7:
				a.Apply(draw())
				if a.LogStats().evicted-ev0 >= 2 {
					multiEvict++
				}
			case op == 7:
				clock.Advance(time.Duration(rng.Intn(90)) * time.Second)
				a.EvictExpired()
				ageEvict += int(a.LogStats().evicted - ev0)
			case op == 8:
				recs, _, _ := a.LogView()
				var pick [][]byte
				for _, rec := range recs {
					if rng.Intn(4) == 0 {
						pick = append(pick, rec)
					}
				}
				removed += len(a.RemoveRecords(pick))
			default:
				peer := make([]*report.Report, 1+rng.Intn(20))
				snap := corpus.NewAggSnapshot(numSites, numPreds)
				for i := range peer {
					peer[i] = draw()
					snap.ApplyReport(peer[i], +1)
				}
				a.MergeSegment(snap, peer, nil, nil)
			}
			want := recountByDecode(t, a)
			numF, numS := a.Runs()
			if numF != want.NumF || numS != want.NumS ||
				!slices.Equal(a.fObsSite, want.FobsSite) || !slices.Equal(a.sObsSite, want.SobsSite) ||
				!slices.Equal(a.fPred, want.FPred) || !slices.Equal(a.sPred, want.SPred) {
				t.Fatalf("seed %d step %d: counters diverge from the decode-and-bump recount of the window (runs %d/%d, want %d/%d)",
					seed, step, numF, numS, want.NumF, want.NumS)
			}
		}
		if multiEvict == 0 || ageEvict == 0 || removed == 0 {
			t.Fatalf("seed %d: vacuous run: %d multi-evicting appends, %d age evictions, %d removals",
				seed, multiEvict, ageEvict, removed)
		}
	}
}

// TestRevokeStashBoundedByWindow ingests four windows' worth of
// identified batches: the revoke stash must hold no more records than
// the window retains, revoking a batch inside the window must still
// remove all of its runs, and revoking one whose runs have all left
// the window must remove nothing — not even a later run with identical
// content.
func TestRevokeStashBoundedByWindow(t *testing.T) {
	in := testCorpus(t).CoreInput()
	const window, batch = 64, 8
	cfg := serverConfig(t)
	cfg.RunLogSize = window
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	reports := in.Set.Reports
	dup := reports[0]
	if err := srv.IngestBatch("dup-old", []*report.Report{dup}); err != nil {
		t.Fatal(err)
	}
	nb := 4 * window / batch
	for i := 0; i < nb; i++ {
		if err := srv.IngestBatch(batchID(i), reports[1+i*batch:1+(i+1)*batch]); err != nil {
			t.Fatal(err)
		}
	}
	stashed := func() int {
		srv.dedupMu.Lock()
		defer srv.dedupMu.Unlock()
		n := 0
		for _, st := range srv.dedupSeen {
			n += len(st.recs)
		}
		return n
	}
	if got, retained := stashed(), srv.agg.LogStats().retained; got > retained {
		t.Fatalf("revoke stash holds %d records for %d retained runs", got, retained)
	}

	if err := srv.IngestBatch("dup-new", []*report.Report{dup}); err != nil {
		t.Fatal(err)
	}
	if n := srv.revokeBatch("dup-old"); n != 0 {
		t.Fatalf("revoking a batch that left the window removed %d runs", n)
	}
	if n := srv.revokeBatch(batchID(nb - 1)); n != batch {
		t.Fatalf("revoking a batch inside the window removed %d runs, want %d", n, batch)
	}
	if n := srv.revokeBatch("dup-new"); n != 1 {
		t.Fatalf("revoking the look-alike batch removed %d runs, want 1", n)
	}
	// dup-new shifted the window by one run, so one batch now straddles
	// its edge with a run already evicted.
	if got, retained := stashed(), srv.agg.LogStats().retained; got > retained+batch-1 {
		t.Fatalf("after revokes the stash holds %d records for %d retained runs", got, retained)
	}
}
