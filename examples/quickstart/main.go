// Quickstart: a spinning QUIC-lite client/server pair over an emulated
// 80 ms path, with a passive on-path observer measuring the connection's
// RTT from nothing but the spin bit — the mechanism of Fig. 1a of the
// paper. Everything runs in virtual time, so this finishes instantly.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"quicspin/internal/core"
	"quicspin/internal/h3"
	"quicspin/internal/netem"
	"quicspin/internal/sim"
	"quicspin/internal/transport"
	"quicspin/internal/wire"
)

func main() {
	loop := sim.NewLoop(time.Date(2023, 5, 15, 0, 0, 0, 0, time.UTC))
	rng := rand.New(rand.NewSource(42))
	path := netem.PathConfig{Delay: 40 * time.Millisecond} // RTT = 80 ms
	network := netem.New(loop, path, rng)

	// Passive on-path observer: it sees only short-header first bytes.
	observer := core.NewObserver(core.ObserverConfig{})
	network.SetTap(func(now time.Time, from, to string, data []byte) {
		if wire.IsLongHeader(data[0]) {
			return // handshake packets carry no spin bit
		}
		dir := core.ClientToServer
		if from == "server" {
			dir = core.ServerToClient
		}
		spin := data[0]&wire.SpinBitMask != 0
		if s, ok := observer.Observe(dir, core.Observation{T: now, Spin: spin}); ok {
			fmt.Printf("  observer: spin edge → RTT sample %v (%s)\n", s.RTT, dirName(dir))
		}
	})

	// Server: HTTP/3-lite, spins the bit like a LiteSpeed deployment.
	ep := transport.NewEndpoint(func(peer string) transport.Config {
		return transport.Config{Rng: rng, SpinPolicy: core.Policy{Mode: core.ModeSpin}}
	})
	h3srv := h3.NewServer(func(peer string, req *h3.Request) *h3.Response {
		return &h3.Response{
			Status:  200,
			Headers: map[string]string{"server": "quicspin-example"},
			Body:    make([]byte, 60000), // multi-packet body → spin wave
		}
	})
	server := netem.NewServerHost(network, "server", ep)
	server.OnActivity = h3srv.ServeEndpoint

	// Client: request the page and wait for it.
	conn := transport.NewClientConn(transport.Config{Rng: rng}, loop.Now())
	hc := h3.NewClientConn(conn)
	reqID, err := hc.Do(&h3.Request{Method: "GET", Authority: "www.example.com", Path: "/", Headers: map[string]string{}})
	if err != nil {
		log.Fatal(err)
	}
	client := netem.NewClientHost(network, "client", "server", conn)
	done := false
	client.OnActivity = func(c *transport.Conn, now time.Time) {
		if _, complete, _ := hc.Response(reqID); complete && !done {
			done = true
			c.Close(now, 0, "done")
		}
	}

	fmt.Println("connecting over an emulated 80 ms path...")
	client.Kick()
	loop.RunUntil(loop.Now().Add(time.Minute))

	fmt.Println("\n=== results ===")
	fmt.Printf("handshake confirmed: %v\n", conn.HandshakeConfirmed())
	fmt.Printf("stack estimator:     smoothed=%v min=%v\n", conn.RTT().Smoothed(), conn.RTT().Min())
	for _, dir := range []core.Direction{core.ClientToServer, core.ServerToClient} {
		if m := observer.MeanRTT(dir); m > 0 {
			fmt.Printf("observer (%s):  mean spin RTT = %v\n", dirName(dir), m)
		}
	}
	fmt.Printf("observer samples:    %d\n", len(observer.Samples()))
	fmt.Println("\nThe observer recovered the RTT without decrypting anything —")
	fmt.Println("that is the spin bit doing its job.")
}

func dirName(d core.Direction) string {
	if d == core.ClientToServer {
		return "client→server"
	}
	return "server→client"
}
