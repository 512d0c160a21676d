package storage

import (
	"errors"
	"reflect"
	"testing"
)

// engineFixtures runs the same conformance checks over every engine.
func engineFixtures(t *testing.T) map[string]func(t *testing.T) Engine {
	return map[string]func(t *testing.T) Engine{
		"mem":  func(t *testing.T) Engine { return NewMem() },
		"file": func(t *testing.T) Engine { e, err := OpenFile(t.TempDir()); mustNil(t, err); return e },
	}
}

func mustNil(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func TestEngineConformance(t *testing.T) {
	for name, mk := range engineFixtures(t) {
		t.Run(name, func(t *testing.T) {
			e := mk(t)
			defer e.Close()
			want := sampleRecords()[:6]
			for i, rec := range want {
				seq, err := e.Append(rec)
				mustNil(t, err)
				if seq != uint64(i+1) {
					t.Fatalf("seq %d, want %d", seq, i+1)
				}
			}
			mustNil(t, e.Sync())
			recs, _ := collect(t, e)
			if !reflect.DeepEqual(recs, want) {
				t.Fatalf("replay mismatch:\n got %#v\nwant %#v", recs, want)
			}

			// Snapshot the first 4, replay must see 4 snapshot + 2 WAL.
			snap := &Snapshot{BaseSeq: 4, Records: want[:4]}
			mustNil(t, e.WriteSnapshot(snap))
			recs, st := collect(t, e)
			if !reflect.DeepEqual(recs, want) {
				t.Fatalf("post-snapshot replay mismatch")
			}
			if st.SnapshotRecords != 4 || st.WALRecords != 2 {
				t.Fatalf("stats %+v, want 4 snapshot + 2 wal", st)
			}
		})
	}
}

func TestEngineClosedErrors(t *testing.T) {
	for name, mk := range engineFixtures(t) {
		t.Run(name, func(t *testing.T) {
			e := mk(t)
			mustNil(t, e.Close())
			if _, err := e.Append(&GCRecord{}); !errors.Is(err, ErrClosed) {
				t.Fatalf("append after close: %v", err)
			}
			if err := e.Sync(); !errors.Is(err, ErrClosed) {
				t.Fatalf("sync after close: %v", err)
			}
		})
	}
}

func TestFaultEngineTrips(t *testing.T) {
	inner := NewMem()
	e := NewFault(inner)
	e.FailAppendAt(3)
	for i := 0; i < 2; i++ {
		if _, err := e.Append(&GCRecord{}); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if _, err := e.Append(&GCRecord{}); !errors.Is(err, ErrInjected) {
		t.Fatalf("3rd append: %v, want ErrInjected", err)
	}
	if !e.Tripped() {
		t.Fatal("not tripped")
	}
	// Everything fails after the trip; the record never reached inner.
	if err := e.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatalf("sync after trip: %v", err)
	}
	if _, err := e.Append(&GCRecord{}); !errors.Is(err, ErrInjected) {
		t.Fatalf("append after trip: %v", err)
	}
	if inner.LastSeq() != 2 {
		t.Fatalf("inner has %d records, want 2", inner.LastSeq())
	}

	// Sync-triggered trip.
	e2 := NewFault(NewMem())
	e2.FailSyncAt(2)
	mustNil(t, e2.Sync())
	if err := e2.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatalf("2nd sync: %v, want ErrInjected", err)
	}
}

func TestMemEngineCrashClone(t *testing.T) {
	e := NewMem()
	for i := 0; i < 3; i++ {
		_, err := e.Append(&AttemptRecord{User: "u", Attempt: uint32(i)})
		mustNil(t, err)
	}
	mustNil(t, e.Sync())
	// Two more records that never sync — power loss eats them.
	for i := 3; i < 5; i++ {
		_, err := e.Append(&AttemptRecord{User: "u", Attempt: uint32(i)})
		mustNil(t, err)
	}
	clone := e.CrashClone()
	recs, _ := collect(t, clone)
	if len(recs) != 3 {
		t.Fatalf("clone replayed %d, want 3", len(recs))
	}
	if clone.LastSeq() != 3 {
		t.Fatalf("clone LastSeq %d, want 3", clone.LastSeq())
	}
	// The original still has all 5 (kill -9 semantics).
	recs, _ = collect(t, e)
	if len(recs) != 5 {
		t.Fatalf("original replayed %d, want 5", len(recs))
	}
}
