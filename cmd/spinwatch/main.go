// Command spinwatch is the passive on-path observer service: it tracks the
// latency spin bit of many concurrent QUIC flows in a fixed-size flow
// table (internal/flowtable) and exports per-flow and aggregate RTT
// estimates live — the Tofino-style line-rate vantage, run as a service.
//
// Two vantages are built in:
//
//	-mode emulate   tap a virtual-time netem network carrying a churning
//	                population of QUIC-lite client/server exchanges
//	                (deterministic; paced against the wall clock)
//	-mode mirror    passively read real UDP datagrams from -listen, e.g. a
//	                port-mirror replay of QUIC traffic
//
// The table state is served on -debug-addr: /debug/flows (text or
// ?format=json), /metrics, /livez, /readyz. SIGINT/SIGTERM drain
// gracefully and exit 130/143 (128+signal).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"quicspin/internal/analysis"
	"quicspin/internal/core"
	"quicspin/internal/flowtable"
	"quicspin/internal/h3"
	"quicspin/internal/hostile"
	"quicspin/internal/netem"
	"quicspin/internal/sim"
	"quicspin/internal/telemetry"
	"quicspin/internal/transport"
	"quicspin/internal/udprun"
)

func main() {
	var (
		mode        = flag.String("mode", "emulate", "vantage: emulate (netem tap) or mirror (real UDP)")
		listen      = flag.String("listen", "127.0.0.1:0", "mirror mode: UDP address to read from")
		debugAddr   = flag.String("debug-addr", "", "serve /debug/flows, /metrics, /livez, /readyz on this address")
		slots       = flag.Int("slots", flowtable.DefaultSlots, "flow table capacity (rounded up to a power of two)")
		maxProbe    = flag.Int("max-probe", flowtable.DefaultMaxProbe, "open-addressing probe window")
		idleTimeout = flag.Duration("idle-timeout", flowtable.DefaultIdleTimeout, "evict flows idle for this long")
		useVEC      = flag.Bool("vec", true, "require a fully valid VEC on measurement edges")
		noGuard     = flag.Bool("no-pn-guard", false, "disable the packet-number edge guard")
		topK        = flag.Int("top", 10, "slowest flows shown on the dashboard and final summary")
		seed        = flag.Int64("seed", 1, "emulate mode: seed for world and traffic randomness")
		nServers    = flag.Int("servers", 4, "emulate mode: number of QUIC-lite servers")
		nClients    = flag.Int("clients", 8, "emulate mode: concurrent clients (each completion respawns a fresh flow)")
		liarFrac    = flag.Float64("liar-frac", 0, "emulate mode: fraction of servers lying about the spin bit")
		spinFrac    = flag.Float64("spin-frac", 0.8, "emulate mode: fraction of servers that spin (rest hold the bit)")
		bodyBytes   = flag.Int("body", 32*1024, "emulate mode: response body size")
		speed       = flag.Float64("speed", 50, "emulate mode: virtual seconds advanced per wall second")
		duration    = flag.Duration("duration", 0, "stop after this wall-clock duration (0: run until signalled)")
	)
	flag.Parse()
	if *mode != "emulate" && *mode != "mirror" {
		log.Fatalf("unknown -mode %q (want emulate or mirror)", *mode)
	}
	if *liarFrac < 0 || *liarFrac > 1 || *spinFrac < 0 || *spinFrac > 1 {
		log.Fatalf("-liar-frac and -spin-frac must be within [0,1]")
	}
	if *nServers < 1 || *nClients < 1 {
		log.Fatalf("-servers and -clients must be positive")
	}
	if *speed <= 0 {
		log.Fatalf("-speed must be positive")
	}

	reg := telemetry.New()
	tbl := flowtable.New(flowtable.Config{
		Slots:       *slots,
		MaxProbe:    *maxProbe,
		IdleTimeout: *idleTimeout,
		DCIDLen:     transport.DefaultConnIDLen,
		NoPNGuard:   *noGuard,
		UseVEC:      *useVEC,
		Telemetry:   reg,
	})

	// First SIGINT/SIGTERM drains gracefully (final summary still prints);
	// a second one kills the process. Exit code is 128+signal — 130 for
	// SIGINT, 143 for SIGTERM — so a supervisor can tell an operator's ^C
	// from its own orchestrated stop.
	interrupt := make(chan struct{})
	var sigCode atomic.Int32
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sigCh
		sigCode.Store(int32(exitCodeFor(s)))
		log.Printf("%v: draining (press again to abort)", s)
		close(interrupt)
		s = <-sigCh
		os.Exit(exitCodeFor(s))
	}()

	// Liveness is the process answering; readiness additionally requires
	// that the vantage has admitted at least one flow (a mirror with no
	// traffic pointed at it is alive but not ready).
	health := telemetry.NewHealth()
	health.AddCheck("flowtable", func() (bool, string) {
		if tbl.Stats().NewFlows == 0 {
			return false, "no flows observed yet"
		}
		return true, ""
	})
	if *debugAddr != "" {
		dbg, err := telemetry.StartDebugServer(*debugAddr, reg,
			telemetry.Endpoint{Path: "/debug/flows", Handler: analysis.FlowsHandler(tbl, *topK)},
			telemetry.Endpoint{Path: "/livez", Handler: health.LiveHandler()},
			telemetry.Endpoint{Path: "/readyz", Handler: health.ReadyHandler()},
		)
		if err != nil {
			log.Fatalf("debug-addr: %v", err)
		}
		defer dbg.Close()
		log.Printf("debug endpoint on http://%s (/metrics, /snapshot, /livez, /readyz, /debug/flows, /debug/pprof/)", dbg.Addr())
	}

	var err error
	switch *mode {
	case "emulate":
		err = runEmulate(tbl, emulateConfig{
			seed: *seed, servers: *nServers, clients: *nClients,
			liarFrac: *liarFrac, spinFrac: *spinFrac, bodyBytes: *bodyBytes,
			speed: *speed, duration: *duration,
		}, interrupt)
	case "mirror":
		err = runMirror(tbl, *listen, *duration, interrupt)
	}
	if err != nil {
		log.Fatal(err)
	}

	snap := tbl.Snapshot(*topK, false)
	fmt.Print(analysis.RenderFlowDashboard(&snap))
	if code := int(sigCode.Load()); code != 0 {
		os.Exit(code)
	}
}

type emulateConfig struct {
	seed               int64
	servers, clients   int
	liarFrac, spinFrac float64
	bodyBytes          int
	speed              float64
	duration           time.Duration
}

// emClient is one live emulated exchange.
type emClient struct {
	conn *transport.Conn
	host *netem.ClientHost
	hc   *h3.ClientConn
	id   int
	done bool
	dead time.Time // virtual deadline after which the flow is recycled
}

// runEmulate paces a deterministic virtual-time netem world against the
// wall clock, with the flow table tapping every delivered datagram.
// Completed exchanges respawn as fresh client addresses, churning flows
// through the table exactly the way a live vantage sees population churn.
func runEmulate(tbl *flowtable.Table, cfg emulateConfig, interrupt <-chan struct{}) error {
	start := time.Date(2022, 4, 11, 0, 0, 0, 0, time.UTC)
	loop := sim.NewLoop(start)
	rng := rand.New(rand.NewSource(cfg.seed))
	path := netem.PathConfig{Delay: 10 * time.Millisecond, Jitter: 2 * time.Millisecond}
	net := netem.New(loop, path, rng)
	net.SetTap(tbl.Tap())

	body := make([]byte, cfg.bodyBytes)
	for i := range body {
		body[i] = byte('a' + i%26)
	}
	srv := h3.NewServer(func(peer string, req *h3.Request) *h3.Response {
		return &h3.Response{Status: 200, Headers: map[string]string{"server": "spinwatch/1.0"}, Body: body}
	})
	serverAddrs := make([]string, cfg.servers)
	for i := 0; i < cfg.servers; i++ {
		addr := fmt.Sprintf("server-%d", i)
		serverAddrs[i] = addr
		policy := core.Policy{Mode: core.ModeSpin}
		if rng.Float64() >= cfg.spinFrac {
			if rng.Intn(2) == 0 {
				policy.Mode = core.ModeZero
			} else {
				policy.Mode = core.ModeOne
			}
		}
		ep := transport.NewEndpoint(func(peer string) transport.Config {
			return transport.Config{Rng: rng, SpinPolicy: policy, EnableVEC: true}
		})
		host := netem.NewServerHost(net, addr, ep)
		host.OnActivity = srv.ServeEndpoint
		if rng.Float64() < cfg.liarFrac {
			net.SetMangler(addr, hostile.NewMangler(hostile.SpinLiar))
			log.Printf("server %s lies about its spin bit", addr)
		}
	}

	nextID := 0
	spawn := func() *emClient {
		c := &emClient{id: nextID}
		nextID++
		addr := fmt.Sprintf("client-%d", c.id)
		server := serverAddrs[rng.Intn(len(serverAddrs))]
		c.conn = transport.NewClientConn(transport.Config{Rng: rng, EnableVEC: true}, loop.Now())
		c.host = netem.NewClientHost(net, addr, server, c.conn)
		c.hc = h3.NewClientConn(c.conn)
		reqID, err := c.hc.Do(&h3.Request{Method: "GET", Authority: server, Path: "/", Headers: map[string]string{}})
		if err != nil {
			log.Printf("client %s: queueing request: %v", addr, err)
			c.done = true
			return c
		}
		c.dead = loop.Now().Add(30 * time.Second)
		c.host.OnActivity = func(conn *transport.Conn, now time.Time) {
			if c.done {
				return
			}
			if _, complete, _ := c.hc.Response(reqID); complete {
				c.done = true
			}
		}
		c.host.Kick()
		return c
	}
	clients := make([]*emClient, cfg.clients)
	for i := range clients {
		clients[i] = spawn()
	}

	const tick = 20 * time.Millisecond
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	var stopAt <-chan time.Time
	if cfg.duration > 0 {
		t := time.NewTimer(cfg.duration)
		defer t.Stop()
		stopAt = t.C
	}
	target := start
	lastSweep := start
	for {
		select {
		case <-interrupt:
			drainEmulate(loop, clients)
			return nil
		case <-stopAt:
			drainEmulate(loop, clients)
			return nil
		case <-ticker.C:
			target = target.Add(time.Duration(float64(tick) * cfg.speed))
			loop.RunUntil(target)
			for i, c := range clients {
				if c.done || !loop.Now().Before(c.dead) {
					c.conn.Close(loop.Now(), 0, "exchange finished")
					c.host.Kick()
					c.host.Close()
					clients[i] = spawn()
				}
			}
			if loop.Now().Sub(lastSweep) >= time.Minute {
				lastSweep = loop.Now()
				tbl.SweepIdle(loop.Now())
			}
		}
	}
}

// drainEmulate closes every live exchange and runs the loop dry so final
// flights (and their tap deliveries) complete.
func drainEmulate(loop *sim.Loop, clients []*emClient) {
	for _, c := range clients {
		c.conn.Close(loop.Now(), 0, "spinwatch draining")
		c.host.Kick()
	}
	for loop.Step() {
	}
}

// runMirror passively reads real UDP datagrams and feeds them to the
// table; every remote sender is tracked as its own flow toward the local
// socket.
func runMirror(tbl *flowtable.Table, listen string, duration time.Duration, interrupt <-chan struct{}) error {
	pc, err := net.ListenPacket("udp", listen)
	if err != nil {
		return fmt.Errorf("spinwatch: listen %s: %w", listen, err)
	}
	defer pc.Close()
	log.Printf("mirroring UDP datagrams on %s", pc.LocalAddr())
	local := flowtable.HashAddr(pc.LocalAddr().String())
	mir := udprun.NewMirror(pc, func(now time.Time, from string, data []byte) {
		tbl.Ingest(now.UnixNano(), flowtable.HashAddr(from), local, data)
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- mir.Run(ctx) }()
	var stopAt <-chan time.Time
	if duration > 0 {
		t := time.NewTimer(duration)
		defer t.Stop()
		stopAt = t.C
	}
	sweep := time.NewTicker(time.Second)
	defer sweep.Stop()
	for {
		select {
		case <-interrupt:
			return nil
		case <-stopAt:
			return nil
		case <-sweep.C:
			tbl.SweepIdle(time.Now())
		case err := <-done:
			return err
		}
	}
}

// exitCodeFor maps a stopping signal to the conventional 128+signal exit
// code: 130 for SIGINT, 143 for SIGTERM.
func exitCodeFor(s os.Signal) int {
	if s == syscall.SIGTERM {
		return 143
	}
	return 130
}
