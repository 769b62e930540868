package core

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"semandaq/internal/detect"
	"semandaq/internal/relstore"
	"semandaq/internal/types"
)

// collectStream drains a violation stream, failing on its first error.
func collectStream(t *testing.T, seq func(func(detect.Violation, error) bool)) []detect.Violation {
	t.Helper()
	var got []detect.Violation
	for v, err := range seq {
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, v)
	}
	return got
}

// TestDetectStreamIsTheReport: for every engine kind, on a plain table and
// on a monitored one, the stream is Detect's report read in order — its
// Violations exactly, and under WithLimit(k) their first k — compared as
// they come, without a sort.
func TestDetectStreamIsTheReport(t *testing.T) {
	ctx := context.Background()
	for _, monitored := range []bool{false, true} {
		s, _ := datasetSession(t)
		if monitored {
			if _, err := s.Monitor(ctx, "customer"); err != nil {
				t.Fatal(err)
			}
			if _, err := s.SetCell("customer", 1, "CITY", types.NewString("Elsewhere")); err != nil {
				t.Fatal(err)
			}
		}
		for _, kind := range allKinds {
			name := fmt.Sprintf("%v monitored=%v", kind, monitored)
			want, err := s.Detect(ctx, "customer", WithEngine(kind))
			if err != nil {
				t.Fatal(err)
			}
			if len(want.Violations) < 100 {
				t.Fatalf("%s: %d violations: the fixture is too clean to tell orders apart", name, len(want.Violations))
			}
			got := collectStream(t, s.DetectStream(ctx, "customer", WithEngine(kind)))
			if !reflect.DeepEqual(got, want.Violations) {
				t.Errorf("%s: the stream (%d) is not the report's Violations (%d) in order", name, len(got), len(want.Violations))
			}
			for _, k := range []int{1, 7, len(want.Violations) / 2} {
				got := collectStream(t, s.DetectStream(ctx, "customer", WithEngine(kind), WithLimit(k)))
				if !reflect.DeepEqual(got, want.Violations[:k]) {
					t.Errorf("%s: WithLimit(%d) streamed %d records that are not the report's first %d", name, k, len(got), k)
				}
			}
		}
	}
}

// TestStreamAfterReadBuildsNoPartition: a stream of a version a blocking
// read just detected is served from the cached report, so it groups no
// column set.
func TestStreamAfterReadBuildsNoPartition(t *testing.T) {
	s, _ := datasetSession(t)
	ctx := context.Background()
	for _, kind := range allKinds {
		rep, err := s.Detect(ctx, "customer", WithEngine(kind))
		if err != nil {
			t.Fatal(err)
		}
		before := relstore.ReadBuildOps()
		got := collectStream(t, s.DetectStream(ctx, "customer", WithEngine(kind)))
		if ops := relstore.ReadBuildOps().Sub(before); ops.ClassBuilds != 0 || ops.PLIBuilds != 0 {
			t.Errorf("%v: the stream built %d classes and %d one-column partitions, want 0", kind, ops.ClassBuilds, ops.PLIBuilds)
		}
		if len(got) != len(rep.Violations) {
			t.Errorf("%v: streamed %d records, the report has %d", kind, len(got), len(rep.Violations))
		}
	}
}

// TestConcurrentStreamsShareOneReport: eight goroutines stream one cached
// entry, and one tracker-served entry, while a writer bumps the version.
// Records reads the shared report without writing to it, so each stream
// equals a batch detection of its version; the race detector watches the
// sharing.
func TestConcurrentStreamsShareOneReport(t *testing.T) {
	ctx := context.Background()
	for _, monitored := range []bool{false, true} {
		s, _ := datasetSession(t)
		if monitored {
			if _, err := s.Monitor(ctx, "customer"); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := s.Detect(ctx, "customer"); err != nil { // the entry the streams share
			t.Fatal(err)
		}
		tab, _ := s.Table("customer")
		ids := tab.Snapshot().IDs()
		// The single writer pins each version it writes, for the batch
		// detections the streams are checked against.
		snaps := map[int64]*relstore.Snapshot{tab.Version(): tab.Snapshot()}
		type streamed struct {
			version int64
			got     []detect.Violation
		}
		results := make(chan streamed, 8*4)  // every stream's, read after wg.Wait
		finished := make(chan struct{}, 8*4) // a tick per stream, paces the writer
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i := 0; i < 4; i++ {
					seq, version, err := s.DetectStreamVersion(ctx, "customer")
					if err != nil {
						t.Error(err)
						return
					}
					var got []detect.Violation
					for v, err := range seq {
						if err != nil {
							t.Error(err)
							return
						}
						got = append(got, v)
					}
					results <- streamed{version, got}
					finished <- struct{}{}
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < 3; i++ {
				for range 8 { // a version is written once eight more streams have ended
					<-finished
				}
				if _, err := s.SetCell("customer", ids[i], "CITY", types.NewString("Nowhere")); err != nil {
					t.Error(err)
					return
				}
				snap := tab.Snapshot()
				snaps[snap.Version()] = snap // read after wg.Wait
			}
		}()
		close(start)
		wg.Wait()
		close(results)
		cfds := s.CFDs("customer")
		wants := map[int64][]detect.Violation{}
		seen := map[int64]int{}
		for r := range results {
			seen[r.version]++
			want, ok := wants[r.version]
			if !ok {
				snap := snaps[r.version]
				if snap == nil {
					t.Fatalf("a stream read version %d, which the writer never wrote", r.version)
				}
				rep, err := detect.ColumnarDetector{Workers: 1}.DetectSnapshot(ctx, snap, cfds)
				if err != nil {
					t.Fatal(err)
				}
				want = rep.Violations
				wants[r.version] = want
			}
			if !reflect.DeepEqual(r.got, want) {
				t.Errorf("monitored=%v: a stream of version %d (%d records) differs from that version's report (%d)",
					monitored, r.version, len(r.got), len(want))
			}
		}
		t.Logf("monitored=%v: streams per version %v", monitored, seen)
	}
}
