package core

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"semandaq/internal/cfd"
	"semandaq/internal/datagen"
	"semandaq/internal/detect"
	"semandaq/internal/relstore"
)

// The five-row customer tables of the late-fill tests. dirtyCSV breaks
// both of lateCFDs: Nora's street splits the UK/EH2 4SD group of three,
// and Joe is dialled 44 from the US, so four tuples are dirty. cleanCSV
// has the same five rows with both errors fixed.
const (
	dirtyCSV = "NAME,CNT,CITY,ZIP,STR,CC,AC\n" +
		"Mike,UK,Edinburgh,EH2 4SD,Mayfield,44,131\n" +
		"Rick,UK,Edinburgh,EH2 4SD,Mayfield,44,131\n" +
		"Nora,UK,Edinburgh,EH2 4SD,Mayfeild,44,131\n" +
		"Joe,US,New York,01202,Mtn Ave,44,908\n" +
		"Ann,UK,London,EC1A 1BB,High St,44,20\n"
	cleanCSV = "NAME,CNT,CITY,ZIP,STR,CC,AC\n" +
		"Mike,UK,Edinburgh,EH2 4SD,Mayfield,44,131\n" +
		"Rick,UK,Edinburgh,EH2 4SD,Mayfield,44,131\n" +
		"Nora,UK,Edinburgh,EH2 4SD,Mayfield,44,131\n" +
		"Joe,US,New York,01202,Mtn Ave,1,908\n" +
		"Ann,UK,London,EC1A 1BB,High St,44,20\n"
	lateCFDs = "phi2@ customer: [CNT=UK, ZIP=_] -> [STR=_]\nphi3@ customer: [CC=44] -> [CNT=UK]\n"
)

// lateFillSession loads dirtyCSV under lateCFDs.
func lateFillSession(t *testing.T) *Semandaq {
	t.Helper()
	s := New()
	if _, err := s.LoadCSV("customer", strings.NewReader(dirtyCSV)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RegisterCFDText("customer", lateCFDs); err != nil {
		t.Fatal(err)
	}
	return s
}

// lateFill runs one detection whose resolve and fill straddle between: it
// resolves the table's record and set, runs between, then detects and
// fills the cache with what it resolved. It returns the digest the next
// unscoped read serves and a fresh detection's of the current table and
// set.
func lateFill(t *testing.T, s *Semandaq, kind DetectorKind, between func()) (got, want *detect.Digest) {
	t.Helper()
	ctx := context.Background()
	o := s.resolve(kind, nil)
	st, cfds, err := s.requestCFDs("customer", o)
	if err != nil {
		t.Fatal(err)
	}
	between()
	if _, err := s.detectEntry(ctx, st, st.tab.Snapshot(), cfds, o); err != nil {
		t.Fatal(err)
	}
	if got, err = s.DetectDigest(ctx, "customer", WithEngine(kind)); err != nil {
		t.Fatal(err)
	}
	tab, err := s.Table("customer")
	if err != nil {
		t.Fatal(err)
	}
	fr, err := detect.DetectFactorised(ctx, tab.Snapshot(), s.CFDs("customer"))
	if err != nil {
		t.Fatal(err)
	}
	return got, fr.Digest()
}

// TestLateFillAfterRegistration: a detection that resolved the set before
// a CFD registration fills nothing, so the next read reports every CFD of
// the new set.
func TestLateFillAfterRegistration(t *testing.T) {
	for _, kind := range allKinds {
		s := lateFillSession(t)
		got, want := lateFill(t, s, kind, func() {
			if _, err := s.RegisterCFDText("customer", "phi1@ customer: [CNT=_, ZIP=_] -> [CITY=_]"); err != nil {
				t.Fatal(err)
			}
		})
		if len(got.PerCFD) != 3 || !reflect.DeepEqual(got, want) {
			t.Errorf("%v: the read after the registration reports %d CFDs, %d dirty; a fresh detection reports %d, %d",
				kind, len(got.PerCFD), got.Dirty, len(want.PerCFD), want.Dirty)
		}
	}
}

// TestLateFillAfterReload: a detection that resolved the table before a
// reload with as many rows (so the new table is at the same version) fills
// nothing, so the next read reports the new table's dirty count.
func TestLateFillAfterReload(t *testing.T) {
	for _, kind := range allKinds {
		s := lateFillSession(t)
		got, want := lateFill(t, s, kind, func() {
			if _, err := s.LoadCSV("customer", strings.NewReader(cleanCSV)); err != nil {
				t.Fatal(err)
			}
		})
		if want.Dirty != 0 || !reflect.DeepEqual(got, want) {
			t.Errorf("%v: the read after the reload reports %d dirty at version %d; a fresh detection reports %d at %d",
				kind, got.Dirty, got.Version, want.Dirty, want.Version)
		}
	}
}

// TestLateReadAfterRegistration: a detection that resolved the set before
// a registration does not read the new set's cached report, so the
// explorer it builds is its own, and the next Explore covers the new set.
func TestLateReadAfterRegistration(t *testing.T) {
	s := lateFillSession(t)
	ctx := context.Background()
	o := s.resolve(DefaultEngine, nil)
	st, cfds, err := s.requestCFDs("customer", o)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RegisterCFDText("customer", "phi1@ customer: [CNT=_, ZIP=_] -> [CITY=_]"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.DetectDigest(ctx, "customer"); err != nil { // fills the new set's entry
		t.Fatal(err)
	}
	snap := st.tab.Snapshot()
	e, err := s.detectEntry(ctx, st, snap, cfds, o)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.explorer(snap, cfds); err != nil {
		t.Fatal(err)
	}
	ex, err := s.Explore(ctx, "customer")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(ex.CFDs()); got != 3 {
		t.Errorf("Explore after the registration covers %d CFDs, want 3", got)
	}
}

// TestConcurrentRegistrationAndReads runs a reader per engine kind while a
// writer reloads the table (dirty and clean copies of one row count, so
// every reload lands on the same version) and registers a new CFD after
// each reload. Once quiescent, every kind's unscoped read equals a fresh
// detection of the current record's table and set: a WithCFDs-scoped
// request naming the whole set, which bypasses the cache.
func TestConcurrentRegistrationAndReads(t *testing.T) {
	ds := datagen.Generate(datagen.Config{Tuples: 400, Seed: 23, NoiseRate: 0.05})
	var dirty, clean bytes.Buffer
	if err := relstore.WriteCSV(ds.Dirty, &dirty); err != nil {
		t.Fatal(err)
	}
	if err := relstore.WriteCSV(ds.Clean, &clean); err != nil {
		t.Fatal(err)
	}
	s := New()
	if _, err := s.LoadCSV("customer", bytes.NewReader(dirty.Bytes())); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterCFDs("customer", datagen.StandardCFDs()); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	done := make(chan struct{})
	var reads atomic.Int64
	var wg sync.WaitGroup
	stop := sync.OnceFunc(func() { close(done); wg.Wait() })
	defer stop()
	for _, kind := range allKinds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if _, err := s.DetectDigest(ctx, "customer", WithEngine(kind)); err != nil {
					t.Error(err)
					return
				}
				reads.Add(1)
			}
		}()
	}
	extra := [][2]string{{"ZIP", "CITY"}, {"CITY", "AC"}, {"STR", "ZIP"}, {"AC", "CC"}}
	// settle lets the readers finish a few reads between two writes.
	settle := func() {
		for n := reads.Load() + 6; reads.Load() < n && !t.Failed(); {
			runtime.Gosched()
		}
	}
	for i := range 16 {
		settle()
		body := dirty.Bytes()
		if i%2 == 1 {
			body = clean.Bytes()
		}
		if _, err := s.LoadCSV("customer", bytes.NewReader(body)); err != nil {
			t.Fatal(err)
		}
		settle()
		fd := extra[i%len(extra)]
		if err := s.RegisterCFDs("customer", []*cfd.CFD{
			cfd.NewFD(fmt.Sprintf("fd%d", i), "customer", []string{fd[0]}, []string{fd[1]}),
		}); err != nil {
			t.Fatal(err)
		}
	}
	stop()
	var ids []string
	for _, c := range s.CFDs("customer") {
		ids = append(ids, c.ID)
	}
	for _, kind := range allKinds {
		got, err := s.DetectDigest(ctx, "customer", WithEngine(kind))
		if err != nil {
			t.Fatal(err)
		}
		want, err := s.DetectDigest(ctx, "customer", WithEngine(kind), WithCFDs(ids...))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v: the cached read (%d CFDs, %d dirty) differs from a fresh detection (%d CFDs, %d dirty)",
				kind, len(got.PerCFD), got.Dirty, len(want.PerCFD), want.Dirty)
		}
	}
}
