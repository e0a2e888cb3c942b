package report

import (
	"bytes"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// fuzzSeeds returns a few valid sets whose encodings seed both fuzzers.
func fuzzSeeds() []*Set {
	return []*Set{
		{NumSites: 0, NumPreds: 0},
		{NumSites: 3, NumPreds: 6, Reports: []*Report{
			{Failed: true, ObservedSites: []int32{0, 2}, TruePreds: []int32{1, 4, 5}},
			{Failed: false},
		}},
		{NumSites: 1000, NumPreds: 4000, Reports: []*Report{
			{Failed: false, ObservedSites: []int32{999}, TruePreds: []int32{0, 3999}},
		}},
	}
}

// FuzzReportRoundTripBinary checks the binary codec: arbitrary input
// never panics, and any input that decodes re-encodes to a set that
// decodes identically (decode∘encode is the identity on valid data).
func FuzzReportRoundTripBinary(f *testing.F) {
	for _, set := range fuzzSeeds() {
		var buf bytes.Buffer
		if err := set.MarshalBinary(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte("CBR1"))
	f.Add([]byte("cbi-reports 1 0 0 0\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		set, err := UnmarshalBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := set.MarshalBinary(&buf); err != nil {
			t.Fatalf("re-encode of decoded set failed: %v", err)
		}
		again, err := UnmarshalBinary(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !reflect.DeepEqual(canonSet(set), canonSet(again)) {
			t.Fatalf("round trip mismatch:\nfirst:  %+v\nsecond: %+v", set, again)
		}
	})
}

// FuzzRunLogRoundTrip checks the per-report record codec the
// collector's run log is built on: arbitrary input never panics and
// never allocates unboundedly, decoded records obey the package
// invariants (strictly ascending, in-range id lists), and any record
// that decodes re-encodes to the identical byte string — so a run log
// replay is bit-for-bit faithful to what was ingested.
func FuzzRunLogRoundTrip(f *testing.F) {
	for _, set := range fuzzSeeds() {
		for _, r := range set.Reports {
			f.Add(uint32(set.NumSites), uint32(set.NumPreds), AppendRecord(nil, r))
		}
	}
	f.Add(uint32(10), uint32(10), []byte{0x01, 0x02, 0x00, 0x03, 0x01, 0x04})
	f.Add(uint32(0), uint32(0), []byte{0x00, 0x00, 0x00})
	f.Add(uint32(1<<30), uint32(1<<30), []byte{0x00, 0xff, 0xff, 0xff, 0xff, 0x03})
	f.Fuzz(func(t *testing.T, numSites, numPreds uint32, data []byte) {
		if numSites > maxDim || numPreds > maxDim {
			t.Skip()
		}
		rec, err := ReadRecord(bytes.NewReader(data), int(numSites), int(numPreds))
		if err != nil {
			return
		}
		checkAscending := func(what string, ids []int32, dim uint32) {
			prev := int32(-1)
			for _, id := range ids {
				if id <= prev || id < 0 || uint32(id) >= dim {
					t.Fatalf("decoded %s list violates invariants: %v (dim %d)", what, ids, dim)
				}
				prev = id
			}
		}
		checkAscending("site", rec.ObservedSites, numSites)
		checkAscending("pred", rec.TruePreds, numPreds)

		enc := AppendRecord(nil, rec)
		again, err := ReadRecord(bytes.NewReader(enc), int(numSites), int(numPreds))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !reflect.DeepEqual(AppendRecord(nil, again), enc) {
			t.Fatalf("record round trip not stable:\nfirst:  %x\nsecond: %x", enc, AppendRecord(nil, again))
		}
	})
}

// FuzzRecordWalk checks RecordIDs.Decode, the byte walker the
// collector un-counts evicted runs with, against ReadRecord: on
// arbitrary input the two accept exactly the same records, yield the
// same outcome and id lists, and consume the same bytes — so eviction
// subtracts precisely what the decode-and-bump path would have.
func FuzzRecordWalk(f *testing.F) {
	for _, set := range fuzzSeeds() {
		for _, r := range set.Reports {
			f.Add(uint32(set.NumSites), uint32(set.NumPreds), AppendRecord(nil, r))
		}
	}
	f.Add(uint32(10), uint32(10), []byte{0x01, 0x02, 0x00, 0x03, 0x01, 0x04, 0x7f})
	f.Add(uint32(1<<20), uint32(300), []byte{0x00, 0x02, 0x81, 0x01, 0xff, 0x7f, 0x01, 0xab, 0x02})
	f.Add(uint32(1<<30), uint32(1<<30), []byte{0x00, 0xff, 0xff, 0xff, 0xff, 0x03})
	var walk RecordIDs
	f.Fuzz(func(t *testing.T, numSites, numPreds uint32, data []byte) {
		if numSites > maxDim || numPreds > maxDim {
			t.Skip()
		}
		br := bytes.NewReader(data)
		rec, rerr := ReadRecord(br, int(numSites), int(numPreds))
		n, werr := walk.Decode(data, int(numSites), int(numPreds))
		if (rerr == nil) != (werr == nil) {
			t.Fatalf("ReadRecord err=%v, walker err=%v on %x", rerr, werr, data)
		}
		if rerr != nil {
			return
		}
		if used := len(data) - br.Len(); n != used {
			t.Fatalf("walker consumed %d bytes, ReadRecord %d", n, used)
		}
		if walk.Failed != rec.Failed ||
			!slices.Equal(walk.Sites, rec.ObservedSites) || !slices.Equal(walk.Preds, rec.TruePreds) {
			t.Fatalf("walker ids differ:\nwalk:   %v %v %v\nreport: %v %v %v",
				walk.Failed, walk.Sites, walk.Preds, rec.Failed, rec.ObservedSites, rec.TruePreds)
		}
	})
}

// FuzzReportRoundTripText does the same for the line-oriented text
// codec, which enforces the same invariants as the binary one (bounded
// dimensions, ascending in-range ids), so any input that decodes obeys
// the decode∘encode identity.
func FuzzReportRoundTripText(f *testing.F) {
	for _, set := range fuzzSeeds() {
		var buf bytes.Buffer
		if err := set.Marshal(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.String())
	}
	f.Add("cbi-reports 1 2 2 1\nF | 0 | 1\n")
	f.Add("cbi-reports 9 0 0 0\n")
	f.Fuzz(func(t *testing.T, text string) {
		set, err := Unmarshal(strings.NewReader(text))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := set.Marshal(&buf); err != nil {
			t.Fatalf("re-encode of decoded set failed: %v", err)
		}
		again, err := Unmarshal(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !reflect.DeepEqual(canonSet(set), canonSet(again)) {
			t.Fatalf("round trip mismatch:\nfirst:  %+v\nsecond: %+v", set, again)
		}
	})
}

// FuzzReportRoundTripBinaryArena checks that the pooled arena decoder
// agrees byte-for-byte with the allocating decoder on every input:
// same accept/reject decision, same decoded set on success, and on
// success each Lease.Records() entry is its report's AppendRecord
// encoding. Runs each
// input through one shared arena twice so recycled workspaces are
// exercised inside a single fuzz execution.
func FuzzReportRoundTripBinaryArena(f *testing.F) {
	for _, set := range fuzzSeeds() {
		var buf bytes.Buffer
		if err := set.MarshalBinary(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte("CBR1"))
	var arena Arena
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantErr := UnmarshalBinary(bytes.NewReader(data))
		for pass := 0; pass < 2; pass++ {
			got, lease, err := arena.Decode(bytes.NewReader(data))
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("pass %d: arena err=%v, plain err=%v", pass, err, wantErr)
			}
			if err != nil {
				continue
			}
			if !reflect.DeepEqual(canonSet(want), canonSet(got)) {
				t.Fatalf("pass %d: arena decode differs:\nplain: %+v\narena: %+v", pass, want, got)
			}
			// The collector logs these bytes in place of re-encoding, so
			// each must be exactly its report's AppendRecord encoding.
			recs := lease.Records()
			if len(recs) != len(got.Reports) {
				t.Fatalf("pass %d: %d records for %d reports", pass, len(recs), len(got.Reports))
			}
			for i, r := range got.Reports {
				if enc := AppendRecord(nil, r); !bytes.Equal(recs[i], enc) {
					t.Fatalf("pass %d: record %d is %x, canonical encoding %x", pass, i, recs[i], enc)
				}
			}
			lease.Release()
			if got.NumSites != 0 || got.NumPreds != 0 || len(got.Reports) != 0 {
				t.Fatalf("pass %d: released set still shows data: %+v", pass, got)
			}
		}
	})
}
