package main

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"time"

	"parsel"
	"parsel/internal/serve"
)

// poolMachines is each daemon's resident machine count, parseld's
// default.
const poolMachines = 4

// shardsPerDataset is the shard (simulated processor) count of every
// generated dataset.
const shardsPerDataset = 8

// node is one in-process parseld: a pool, the serve handler and an
// HTTP server on a loopback port.
type node struct {
	pool *parsel.Pool[int64]
	srv  *serve.Server
	hs   *http.Server
	url  string
	done chan struct{} // closed when the HTTP server's Serve returns
}

// startNode starts a daemon; a non-empty snapDir turns on snapshot
// persistence there.
func startNode(snapDir string) (*node, error) {
	pool, err := parsel.NewPool[int64](parsel.Options{}, parsel.PoolOptions{MaxMachines: poolMachines})
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Options{
		Pool:        pool,
		SnapshotDir: snapDir,
		Logger:      slog.New(slog.DiscardHandler),
	})
	if err != nil {
		pool.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain()
		srv.Close()
		pool.Close()
		return nil, err
	}
	n := &node{pool: pool, srv: srv, hs: &http.Server{Handler: srv}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(n.done)
		if err := n.hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "perfbench: daemon %s stopped: %v\n", n.url, err)
		}
	}()
	return n, nil
}

// warm builds the pool's machines for the datasets' shape.
func (n *node) warm() error {
	return n.pool.Warm(shardsPerDataset, poolMachines)
}

// stop shuts the daemon down in parseld's order: drain, stop the HTTP
// server, flush snapshots, close the pools; it returns once the serve
// goroutine has exited.
func (n *node) stop() {
	n.srv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := n.hs.Shutdown(ctx); err != nil {
		n.hs.Close()
	}
	<-n.done
	n.srv.FlushSnapshots()
	n.srv.Close()
	n.pool.Close()
}

// newHTTPClient returns the client side's HTTP client: keep-alive
// connections enough for every worker, wrapped by wrap when non-nil.
func newHTTPClient(wrap func(http.RoundTripper) http.RoundTripper) *http.Client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = 16
	var rt http.RoundTripper = tr
	if wrap != nil {
		rt = wrap(tr)
	}
	return &http.Client{Transport: rt}
}
