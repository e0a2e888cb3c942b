// Arena decoding for the binary wire codec: a sync.Pool-backed
// workspace that reuses body/Set/Report/id buffers across batches, so
// the collector's steady-state decode path stops allocating per report.
// The workspace holds the whole (size-capped) body and walks its
// records in place; Lease.Records exposes each report's record bytes,
// which the collector logs and applies without re-encoding.
//
// The contract is lease-based. Arena.Decode returns the decoded *Set
// together with a *Lease that owns every buffer backing it. When the
// caller is done with the Set it calls Lease.Release, which severs the
// returned Set (dims zeroed, Reports nil) before recycling the buffers
// — a stale reader holding the old *Set observes an empty set, never
// another batch's recycled data. Holding interior slices (a Report's
// id lists, a record from Records) past Release is a contract
// violation; the -race tests in arena_test.go pin the Set-level
// guarantee.
//
// The decoder enforces exactly the invariants of UnmarshalBinary —
// bounded dims, strictly ascending lists, minimal varints, allocation
// tracking bytes read rather than claimed lengths (fuzz-verified by
// FuzzReportRoundTripBinaryArena against the classic decoder).
package report

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
)

// Arena hands out pooled decode workspaces. The zero value is ready to
// use; one Arena is meant to be shared by all decoders in a process
// (the collector keeps one per server).
type Arena struct {
	pool    sync.Pool
	active  atomic.Int64
	decodes atomic.Int64
	misses  atomic.Int64
}

// ArenaStats is a point-in-time view of pool behaviour, exported as
// collector gauges.
type ArenaStats struct {
	// ActiveLeases counts Sets decoded but not yet released.
	ActiveLeases int64
	// Decodes counts Decode calls.
	Decodes int64
	// PoolMisses counts Decode and Read calls that had to build a
	// fresh workspace instead of reusing a pooled one.
	PoolMisses int64
}

// Stats reports pool counters. Counts are monotonic except
// ActiveLeases; all may lag in-flight decodes by a moment.
func (a *Arena) Stats() ArenaStats {
	return ArenaStats{
		ActiveLeases: a.active.Load(),
		Decodes:      a.decodes.Load(),
		PoolMisses:   a.misses.Load(),
	}
}

// Lease owns the buffers backing one arena-decoded Set.
type Lease struct {
	arena *Arena
	// body holds the whole input; records alias it.
	body bytes.Buffer
	hdr  bytes.Reader
	// out is the Set handed to the caller; Release severs it so the
	// caller's pointer can never observe recycled contents.
	out      *Set
	reports  []Report
	ptrs     []*Report
	ids      []int32
	spans    []idSpan
	recs     [][]byte
	released bool
}

// idSpan records one report's id-list extents inside the shared slab:
// sites occupy ids[s0:s1], preds ids[s1:p1].
type idSpan struct {
	s0, s1, p1 int
}

// Decode reads all of r into a pooled buffer and parses it as a
// binary-format batch; bytes after the last record are ignored, as
// UnmarshalBinary ignores them. r must already be size-capped: Decode
// holds the whole input. On success the returned Lease must be
// Released exactly once when the Set is no longer needed; on error the
// workspace is recycled internally and the lease is nil.
func (a *Arena) Decode(r io.Reader) (*Set, *Lease, error) {
	l, err := a.Read(r)
	var set *Set
	if err == nil {
		set, err = l.Decode()
	}
	if err != nil {
		l.Release()
		return nil, nil, err
	}
	return set, l, nil
}

// Read reads all of r into a lease's pooled buffer without parsing it,
// for a caller that must look at the bytes before choosing a codec:
// Body returns them, and Lease.Decode parses them as Arena.Decode
// would. The lease is non-nil even on a read error, and the caller
// Releases it either way.
func (a *Arena) Read(r io.Reader) (*Lease, error) {
	var l *Lease
	if v := a.pool.Get(); v != nil {
		l = v.(*Lease)
	} else {
		a.misses.Add(1)
		l = &Lease{}
	}
	l.arena = a
	l.released = false
	a.active.Add(1)
	l.body.Reset()
	_, err := l.body.ReadFrom(r)
	return l, err
}

// Body returns the bytes Read took in, valid until Release.
func (l *Lease) Body() []byte { return l.body.Bytes() }

// Records returns each decoded report's record bytes, index-aligned
// with the Set's Reports and valid until Release. Every record decode
// accepts is the canonical AppendRecord encoding of its report, so
// these are the bytes AppendRecord would write.
func (l *Lease) Records() [][]byte { return l.recs }

// Decode parses the body Read took in as a binary-format batch. The
// returned Set is owned by the lease, as with Arena.Decode.
func (l *Lease) Decode() (*Set, error) {
	l.arena.decodes.Add(1)
	body := l.body.Bytes()
	if len(body) < len(binaryMagic) {
		return nil, fmt.Errorf("report: binary magic: %v", io.ErrUnexpectedEOF)
	}
	if string(body[:len(binaryMagic)]) != binaryMagic {
		return nil, fmt.Errorf("report: bad binary magic %q", body[:len(binaryMagic)])
	}
	// The header's three varints go through UnmarshalBinary's readers;
	// the records, the bulk of the body, are walked in place.
	l.hdr.Reset(body[len(binaryMagic):])
	numSites, err := readDim(&l.hdr, "numSites")
	if err != nil {
		return nil, err
	}
	numPreds, err := readDim(&l.hdr, "numPreds")
	if err != nil {
		return nil, err
	}
	numReports, err := readUvarint(&l.hdr)
	if err != nil {
		return nil, fmt.Errorf("report: binary numReports: %v", err)
	}
	pos := len(body) - l.hdr.Len()
	l.reports = l.reports[:0]
	l.spans = l.spans[:0]
	l.ids = l.ids[:0]
	l.recs = l.recs[:0]
	for i := uint64(0); i < numReports; i++ {
		start := pos
		var sp idSpan
		var nSites int
		sp.s0 = len(l.ids)
		if l.ids, nSites, pos, err = walkRecord(l.ids, body, pos, numSites, numPreds); err != nil {
			return nil, fmt.Errorf("report: binary report %d: %v", i, err)
		}
		sp.s1 = sp.s0 + nSites
		sp.p1 = len(l.ids)
		l.reports = append(l.reports, Report{Failed: body[start]&1 != 0})
		l.spans = append(l.spans, sp)
		l.recs = append(l.recs, body[start:pos:pos])
	}
	// Materialize the id sub-slices only now that the slab has stopped
	// growing — slicing mid-decode would be invalidated by append
	// reallocation. Full-capacity slice expressions keep a report from
	// appending into its neighbour's ids.
	l.ptrs = l.ptrs[:0]
	for i := range l.reports {
		sp := l.spans[i]
		rp := &l.reports[i]
		if sp.s1 > sp.s0 {
			rp.ObservedSites = l.ids[sp.s0:sp.s1:sp.s1]
		}
		if sp.p1 > sp.s1 {
			rp.TruePreds = l.ids[sp.s1:sp.p1:sp.p1]
		}
		l.ptrs = append(l.ptrs, rp)
	}
	l.out = &Set{NumSites: numSites, NumPreds: numPreds, Reports: l.ptrs}
	return l.out, nil
}

// Release severs the Set returned by Decode and recycles the lease's
// buffers. The Set header is the one per-decode allocation precisely so
// it can be zeroed here: a caller that erroneously reads it after
// Release sees an empty set, never a later batch's data. Safe to call
// more than once; extra calls are no-ops.
func (l *Lease) Release() {
	if l == nil || l.released {
		return
	}
	l.released = true
	if l.out != nil {
		*l.out = Set{}
		l.out = nil
	}
	for i := range l.reports {
		l.reports[i] = Report{}
	}
	clear(l.recs)
	l.recs = l.recs[:0]
	a := l.arena
	a.active.Add(-1)
	a.pool.Put(l)
}
