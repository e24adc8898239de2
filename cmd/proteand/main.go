// Command proteand is the protean fleet daemon: it listens on TCP
// and/or a unix socket, accepts Scenario submissions over the
// length-prefixed binary wire protocol, runs them on the shared
// in-process fleet runner, and streams progress and results back to
// clients. SIGINT/SIGTERM drain gracefully — running jobs finish and
// queued replies flush before the sockets close; a second signal
// cancels the running jobs, which finish as canceled, and the daemon
// exits once they have stopped.
//
// Usage:
//
//	proteand [-tcp HOST:PORT] [-unix PATH] [-max-active N] [-queue-depth N] [-name NAME]
//
// With neither -tcp nor -unix, the daemon listens on 127.0.0.1:9190.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"runtime"
	"sync"
	"syscall"

	"protean/internal/server"
)

func main() {
	tcpAddr := flag.String("tcp", "", "TCP listen address (host:port)")
	unixPath := flag.String("unix", "", "unix socket listen path")
	name := flag.String("name", "proteand", "server name reported in the handshake")
	maxActive := flag.Int("max-active", runtime.NumCPU(), "max concurrently running jobs (0 = unbounded)")
	queueDepth := flag.Int("queue-depth", 0, "per-connection write queue depth in frames (0 = default)")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "proteand: unexpected arguments %q\n", flag.Args())
		os.Exit(2)
	}
	if *tcpAddr == "" && *unixPath == "" {
		*tcpAddr = "127.0.0.1:9190"
	}

	srv := server.New(server.Config{Name: *name, MaxActive: *maxActive, QueueDepth: *queueDepth})
	var wg sync.WaitGroup
	listen := func(network, addr string) {
		l, err := net.Listen(network, addr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "proteand: listen %s %s: %v\n", network, addr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "proteand: listening on %s %s\n", network, addr)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := srv.Serve(l); err != nil {
				fmt.Fprintf(os.Stderr, "proteand: serve %s %s: %v\n", network, addr, err)
			}
		}()
	}
	if *unixPath != "" {
		// A previous unclean exit may have left the socket file behind;
		// net.Listen would refuse to rebind over it.
		os.Remove(*unixPath)
		listen("unix", *unixPath)
	}
	if *tcpAddr != "" {
		listen("tcp", *tcpAddr)
	}

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	sig := <-sigc
	fmt.Fprintf(os.Stderr, "proteand: %v: draining (signal again to cancel running jobs)\n", sig)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		<-sigc
		fmt.Fprintln(os.Stderr, "proteand: canceling running jobs")
		cancel()
	}()
	drainErr := srv.ShutdownContext(ctx)
	wg.Wait()
	if *unixPath != "" {
		os.Remove(*unixPath)
	}
	if drainErr != nil {
		fmt.Fprintf(os.Stderr, "proteand: drain cut short: %v\n", drainErr)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "proteand: drained")
}
