// Greasing: runs one connection against servers deploying each spin
// policy the paper distinguishes (Table 3) — spinning, all-zero, all-one,
// per-packet greasing and per-connection greasing — and shows how the
// client-side classification plus the grease filter (§3.3) tells them
// apart.
package main

import (
	"fmt"
	"math/rand"
	"time"

	"quicspin/internal/analysis"
	"quicspin/internal/core"
	"quicspin/internal/h3"
	"quicspin/internal/netem"
	"quicspin/internal/scanner"
	"quicspin/internal/sim"
	"quicspin/internal/transport"
)

func main() {
	fmt.Println("policy            observed series      classification  spin-RTT samples")
	fmt.Println("--------------------------------------------------------------------")
	for _, mode := range []core.Mode{
		core.ModeSpin, core.ModeZero, core.ModeOne,
		core.ModeGreasePerPacket, core.ModeGreasePerConn,
	} {
		conn := runOnce(core.Policy{Mode: mode})
		obs := conn.Observations()
		series := renderSeries(obs, 18)

		// Classify exactly like the measurement pipeline.
		cr := &scanner.ConnResult{QUIC: true}
		for _, o := range obs {
			if o.Spin {
				cr.OnePkts++
			} else {
				cr.ZeroPkts++
			}
		}
		cr.Observations = obs
		cr.StackRTTs = conn.RTT().Samples()
		a := analysis.AnalyzeConn(cr)
		fmt.Printf("%-17s %-20s %-15s %d\n", mode, series, a.Class, len(a.SpinRTTsR))
	}
	fmt.Println("\nPer-packet greasing produces implausibly short spin cycles, which is")
	fmt.Println("what the grease filter keys on: any spin estimate below the stack's")
	fmt.Println("minimum RTT marks the connection as greased.")
}

// runOnce performs one request/response against a server with the policy.
func runOnce(policy core.Policy) *transport.Conn {
	loop := sim.NewLoop(time.Date(2023, 5, 15, 0, 0, 0, 0, time.UTC))
	rng := rand.New(rand.NewSource(7))
	network := netem.New(loop, netem.PathConfig{Delay: 30 * time.Millisecond}, rng)

	ep := transport.NewEndpoint(func(peer string) transport.Config {
		return transport.Config{Rng: rng, SpinPolicy: policy}
	})
	h3srv := h3.NewServer(func(peer string, req *h3.Request) *h3.Response {
		return &h3.Response{Status: 200, Headers: map[string]string{"server": "example"}, Body: make([]byte, 50000)}
	})
	server := netem.NewServerHost(network, "server", ep)
	server.OnActivity = h3srv.ServeEndpoint

	conn := transport.NewClientConn(transport.Config{Rng: rng}, loop.Now())
	hc := h3.NewClientConn(conn)
	id, _ := hc.Do(&h3.Request{Method: "GET", Authority: "www.example.com", Path: "/", Headers: map[string]string{}})
	client := netem.NewClientHost(network, "client", "server", conn)
	done := false
	client.OnActivity = func(c *transport.Conn, now time.Time) {
		if _, complete, _ := hc.Response(id); complete && !done {
			done = true
			c.Close(now, 0, "done")
		}
	}
	client.Kick()
	loop.RunUntil(loop.Now().Add(time.Minute))
	return conn
}

func renderSeries(obs []core.Observation, max int) string {
	s := ""
	for i, o := range obs {
		if i == max {
			s += "…"
			break
		}
		if o.Spin {
			s += "1"
		} else {
			s += "0"
		}
	}
	return s
}
