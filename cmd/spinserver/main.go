// Command spinserver runs a spin-bit-enabled QUIC-lite HTTP/3-lite server
// on a real UDP socket. Its spin policy is configurable, so it can act as
// a LiteSpeed-style spinning deployment, a zeroing hyperscaler, or a
// greasing endpoint — handy for driving cmd/spinprobe and passive
// observers on a live network.
//
// Usage:
//
//	spinserver -listen :4433 -spin spin -disable-every 16 -body 30000
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
	"time"

	"quicspin/internal/core"
	"quicspin/internal/h3"
	"quicspin/internal/transport"
	"quicspin/internal/udprun"
)

func main() {
	listen := flag.String("listen", ":4433", "UDP address to listen on")
	spin := flag.String("spin", "spin", "spin policy: spin, zero, one, grease-packet, grease-conn")
	disableEvery := flag.Int("disable-every", 16, "disable the spin bit on one in N connections (0 = never)")
	body := flag.Int("body", 30000, "response body size in bytes")
	serverHdr := flag.String("server-header", "quicspin/spinserver", "Server response header")
	seed := flag.Int64("seed", time.Now().UnixNano(), "random seed")
	vec := flag.Bool("vec", false, "carry the Valid Edge Counter extension in reserved bits")
	flag.Parse()

	mode, err := parseMode(*spin)
	if err != nil {
		log.Fatal(err)
	}
	// Fail fast on flag values the serve loop would otherwise misread.
	if *body < 0 {
		log.Fatalf("spinserver: -body must be >= 0, got %d", *body)
	}
	if *disableEvery < 0 {
		log.Fatalf("spinserver: -disable-every must be >= 0 (0 = never), got %d", *disableEvery)
	}
	pc, err := net.ListenPacket("udp", *listen)
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	defer pc.Close()

	rng := rand.New(rand.NewSource(*seed))
	ep := transport.NewEndpoint(func(peer string) transport.Config {
		return transport.Config{
			Rng:       rng,
			EnableVEC: *vec,
			SpinPolicy: core.Policy{
				Mode:          mode,
				DisableEveryN: *disableEvery,
				DisabledMode:  core.ModeZero,
			},
		}
	})
	srv := h3.NewServer(func(peer string, req *h3.Request) *h3.Response {
		log.Printf("%s GET %s%s", peer, req.Authority, req.Path)
		b := make([]byte, *body)
		for i := range b {
			b[i] = byte('a' + i%26)
		}
		return &h3.Response{
			Status:  200,
			Headers: map[string]string{"server": *serverHdr, "content-type": "text/html"},
			Body:    b,
		}
	})
	runner := udprun.NewEndpointRunner(ep, pc)
	runner.OnActivity = srv.ServeEndpoint

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	log.Printf("spinserver listening on %s (policy=%s, disable-every=%d)", pc.LocalAddr(), mode, *disableEvery)
	if err := runner.Run(ctx); err != nil && ctx.Err() == nil {
		log.Fatalf("runner: %v", err)
	}
}

func parseMode(s string) (core.Mode, error) {
	switch s {
	case "spin":
		return core.ModeSpin, nil
	case "zero":
		return core.ModeZero, nil
	case "one":
		return core.ModeOne, nil
	case "grease-packet":
		return core.ModeGreasePerPacket, nil
	case "grease-conn":
		return core.ModeGreasePerConn, nil
	default:
		return 0, fmt.Errorf("unknown spin policy %q", s)
	}
}
