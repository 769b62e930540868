// Command semandaq-server runs the Semandaq data-quality server: a JSON
// HTTP API exposing constraint management, SQL-based detection, auditing,
// exploration, repair and incremental monitoring — the reproduction of the
// paper's multi-tier web architecture (data quality servers + web tier).
//
// Usage:
//
//	semandaq-server [-addr :8080] [-demo]
//
// With -demo the server starts preloaded with the generated customer
// dataset (1000 tuples, 5% noise) and the standard CFD set, so
//
//	curl -X POST localhost:8080/api/detect/customer
//	curl -N localhost:8080/api/detect/customer?stream=1
//	curl localhost:8080/api/audit/customer
//
// work immediately. Detection runs under each request's context: a client
// that disconnects mid-scan (Ctrl-C on the curl) aborts the scan on the
// server, and SIGINT shuts the server down gracefully, cancelling
// in-flight scans.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"time"

	"semandaq/internal/core"
	"semandaq/internal/datagen"
	"semandaq/internal/server"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	demo := flag.Bool("demo", false, "preload generated customer data and CFDs")
	tuples := flag.Int("tuples", 1000, "demo dataset size")
	noise := flag.Float64("noise", 0.05, "demo noise rate")
	workers := flag.Int("workers", 0, "parallel detection worker count (default GOMAXPROCS)")
	flag.Parse()

	s := core.New()
	s.SetWorkers(*workers)
	if *demo {
		ds := datagen.Generate(datagen.Config{Tuples: *tuples, Seed: 1, NoiseRate: *noise})
		s.RegisterTable(ds.Dirty)
		if err := s.RegisterCFDs("customer", datagen.StandardCFDs()); err != nil {
			log.Fatal(err)
		}
		log.Printf("demo data loaded: customer (%d tuples, %.0f%% noise)", *tuples, *noise*100)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	srv := newHTTPServer(ctx, *addr, server.New(s).Handler())
	go func() {
		<-ctx.Done()
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(shutCtx)
	}()
	log.Printf("semandaq-server listening on %s", *addr)
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	log.Print("semandaq-server stopped")
}

// newHTTPServer builds the server for handler on addr, its request contexts
// derived from base (cancelling base cancels in-flight scans). Headers must
// arrive within 10 s, a whole request within 3 minutes (a 16 MiB CSV body at
// 1 Mbit/s takes 134 s), and idle keep-alives close after 2 minutes. There is
// no WriteTimeout on purpose: a ?stream=1 detection writes NDJSON for as long
// as its scan runs, and a client that leaves cancels it through its context.
func newHTTPServer(base context.Context, addr string, handler http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       3 * time.Minute,
		IdleTimeout:       2 * time.Minute,
		BaseContext:       func(net.Listener) context.Context { return base },
	}
}
