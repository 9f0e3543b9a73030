// Command jepod serves the analysis pipeline as a long-lived session
// daemon: the HTTP+SSE surface of internal/service. Clients open sessions,
// upload virtual source files, and run analyze/optimize/profile/table
// requests whose raw responses are byte-identical to the corresponding CLI
// stdout (`jepo analyze`, `jepo optimize`, `jepo profile`, `jepo table1`,
// `wekaexp -table 2`). All sessions share one content-addressed artifact
// store, so repeated or overlapping requests get warm-cache latency.
//
// Usage:
//
//	jepod [-addr 127.0.0.1:7361] [-slots N] [-max-queue N]
//	      [-engine vm|ast] [-jobs N] [-cache-size N]
//
// -cache-size bounds the shared artifact store in entries, and with it the
// daemon's memory.
//
// Admission control: at most -slots requests execute concurrently, up to
// -max-queue more wait FIFO, and further arrivals are shed with 503.
// SIGINT/SIGTERM drains gracefully: in-flight requests' contexts are
// cancelled, the listener closes, and the process exits once handlers
// return.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"jepo/internal/cliconfig"
	"jepo/internal/engine"
	"jepo/internal/service"
)

func main() {
	fs := flag.NewFlagSet("jepod", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:7361", "listen address")
	slots := fs.Int("slots", 1, "requests executing concurrently")
	maxQueue := fs.Int("max-queue", 16, "requests waiting for a slot before arrivals are shed with 503")
	cacheSize := fs.Int("cache-size", engine.DefaultCapacity, "artifact cache capacity in entries")
	shared := cliconfig.Register(fs, cliconfig.FeatEngine|cliconfig.FeatJobs)
	fs.Parse(os.Args[1:])
	if err := run(*addr, *slots, *maxQueue, *cacheSize, shared); err != nil {
		fmt.Fprintln(os.Stderr, "jepod:", err)
		os.Exit(1)
	}
}

func run(addr string, slots, maxQueue, cacheSize int, shared *cliconfig.Set) error {
	eng, err := shared.Engine()
	if err != nil {
		return err
	}
	// The daemon builds a private store instead of using the process-wide
	// default: sessions share it through the Service.
	svc := service.New(service.Config{
		Cache:    engine.Config{Capacity: cacheSize},
		Engine:   eng,
		Jobs:     shared.Jobs(),
		Slots:    slots,
		MaxQueue: maxQueue,
	})
	defer svc.Close()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	srv := &http.Server{
		Addr:    addr,
		Handler: service.Handler(svc),
		// Every request inherits the daemon's root context, so a SIGINT
		// cancels in-flight pipeline work (pools drain, interpreters abort
		// at the next op-budget checkpoint) rather than orphaning it.
		BaseContext: func(net.Listener) context.Context { return ctx },
	}
	errCh := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "jepod: listening on %s\n", addr)
		errCh <- srv.ListenAndServe()
	}()

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(os.Stderr, "jepod: shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		srv.Close()
		return err
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Fprintln(os.Stderr, "jepod:", svc.Store().Stats())
	return nil
}
