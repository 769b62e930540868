package core

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"semandaq/internal/relstore"
	"semandaq/internal/schema"
	"semandaq/internal/types"
)

func registrySession(t *testing.T, rows int) *Semandaq {
	t.Helper()
	s := New()
	tab := relstore.NewTable(schema.New("reg", "K", "V"))
	for i := 0; i < rows; i++ {
		tab.MustInsert(relstore.Tuple{
			types.NewString(fmt.Sprintf("k%d", i%50)),
			types.NewString(fmt.Sprintf("v%d", i%3)),
		})
	}
	s.RegisterTable(tab)
	if _, err := s.RegisterCFDText("reg", `reg: [K=_] -> [V=_]`); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestMonitorRegistryRouting: Monitor registers; the mutation API routes
// through it; StopMonitor detaches it.
func TestMonitorRegistryRouting(t *testing.T) {
	s := registrySession(t, 10)
	if m, err := s.ActiveMonitor("reg"); err != nil || m != nil {
		t.Fatalf("fresh session has monitor %v, %v", m, err)
	}
	if _, err := s.ApplyUpdates("reg", nil); !errors.Is(err, ErrNoMonitor) {
		t.Fatalf("ApplyUpdates without monitor = %v, want ErrNoMonitor", err)
	}
	m, err := s.Monitor(context.Background(), "reg")
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.ActiveMonitor("reg")
	if err != nil || got != m {
		t.Fatalf("ActiveMonitor = %v, %v", got, err)
	}
	before := m.DirtyCount()
	// Insert a row that disagrees with k0's value: tracked immediately.
	if _, _, err := s.Insert("reg", relstore.Tuple{
		types.NewString("k0"), types.NewString("other")}); err != nil {
		t.Fatal(err)
	}
	if m.DirtyCount() <= before {
		t.Fatalf("insert bypassed the monitor: dirty %d -> %d", before, m.DirtyCount())
	}
	if !s.StopMonitor("reg") {
		t.Fatal("StopMonitor found nothing")
	}
	if m2, err := s.ActiveMonitor("reg"); err != nil || m2 != nil {
		t.Fatalf("monitor still active after stop: %v, %v", m2, err)
	}
}

// TestActiveMonitorUnknownTable: a table that is not registered is
// ErrNoTable, not "no monitor".
func TestActiveMonitorUnknownTable(t *testing.T) {
	s := registrySession(t, 10)
	if m, err := s.ActiveMonitor("nope"); m != nil || !errors.Is(err, ErrNoTable) {
		t.Fatalf("ActiveMonitor of an unknown table = %v, %v; want ErrNoTable", m, err)
	}
}

// TestMonitorBusyRefusesWrites: while a replacement monitor seeds its
// tracker from a large table, concurrent writes and ActiveMonitor return
// ErrMonitorBusy instead of racing the handover.
func TestMonitorBusyRefusesWrites(t *testing.T) {
	s := registrySession(t, 150_000)
	done := make(chan error, 1)
	go func() {
		_, err := s.Monitor(context.Background(), "reg")
		done <- err
	}()
	sawBusy := false
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if _, _, err := s.Insert("reg", relstore.Tuple{
			types.NewString("kx"), types.NewString("vx")}); errors.Is(err, ErrMonitorBusy) {
			sawBusy = true
			break
		} else if err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			// Seeding finished before we caught it in the act; with a
			// 150k-row table this should not happen on any real machine.
			if !sawBusy {
				t.Skip("monitor seeded too fast to observe the busy window")
			}
		default:
		}
	}
	if !sawBusy {
		t.Fatal("never observed ErrMonitorBusy during monitor start")
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// The window closes: writes go through the new monitor.
	if _, _, err := s.Insert("reg", relstore.Tuple{
		types.NewString("kx"), types.NewString("vx")}); err != nil {
		t.Fatal(err)
	}
}
