package h3

import (
	"fmt"
	"time"

	"quicspin/internal/transport"
)

// FirstStreamID is the first client-initiated bidirectional stream
// (RFC 9000 §2.1); subsequent requests use id+4.
const FirstStreamID = 0

// ClientConn issues requests over one transport connection. It is
// poll-driven like the transport itself: queue a request with Do, pump the
// connection, then check Response.
type ClientConn struct {
	conn   *transport.Conn
	nextID uint64
	// reqBuf is the request encoding scratch: the transport copies what Do
	// queues.
	reqBuf []byte
	// resp is the last response Response parsed, for stream respID, with
	// its error; parsed is false until this connection has one. Reset keeps
	// resp to parse the next connection's response into.
	resp    *Response
	respID  uint64
	respErr error
	parsed  bool
}

// NewClientConn wraps an established (or connecting) client transport conn.
func NewClientConn(conn *transport.Conn) *ClientConn {
	c := &ClientConn{}
	c.Reset(conn)
	return c
}

// Reset points c at a new transport connection, as NewClientConn would
// create it: one ClientConn (its zero value is ready for Reset) serves a
// sequence of connections.
func (c *ClientConn) Reset(conn *transport.Conn) {
	c.conn, c.nextID, c.parsed, c.respErr = conn, FirstStreamID, false, nil
}

// Conn returns the underlying transport connection.
func (c *ClientConn) Conn() *transport.Conn { return c.conn }

// Do queues a request and returns its stream ID. The transport must be
// pumped (Poll/Receive/Advance) for the exchange to progress; the handshake
// need not be complete yet — data is buffered.
func (c *ClientConn) Do(req *Request) (uint64, error) {
	id := c.nextID
	c.nextID += 4
	c.reqBuf = AppendRequest(c.reqBuf[:0], req)
	if err := c.conn.SendStream(id, c.reqBuf, true); err != nil {
		return 0, fmt.Errorf("h3: queueing request: %w", err)
	}
	return id, nil
}

// Response returns the parsed response for a stream once it has fully
// arrived. done is false while the exchange is still in flight. A stream is
// parsed once: polling it again returns the same Response (or error)
// without parsing. The Response stays valid until the next Reset, which
// parses the next connection's response into it; its Body aliases the
// transport's receive buffer.
func (c *ClientConn) Response(id uint64) (*Response, bool, error) {
	if c.parsed && c.respID == id {
		if c.respErr != nil {
			return nil, true, c.respErr
		}
		return c.resp, true, nil
	}
	data, complete := c.conn.StreamRecv(id)
	if !complete {
		return nil, false, nil
	}
	if c.resp == nil || c.parsed {
		// Another stream's Response, handed out before, stays intact.
		c.resp = new(Response)
	}
	c.parsed, c.respID = true, id
	if c.respErr = c.resp.Parse(data); c.respErr != nil {
		return nil, true, c.respErr
	}
	return c.resp, true, nil
}

// Handler produces a response for a request. peer is the address the
// client's connection was accepted from.
type Handler func(peer string, req *Request) *Response

// Server serves HTTP/3-lite requests on every connection of a transport
// endpoint. It keeps no per-connection state: which request streams have been
// answered is the connection's own knowledge (transport.Conn.AcceptStream).
type Server struct {
	Handler Handler
}

// NewServer returns a Server with the given handler.
func NewServer(h Handler) *Server {
	return &Server{Handler: h}
}

// ServeEndpoint answers every newly completed request stream on ep's
// connections. It is the endpoint driver's activity hook
// (netem.ServerHost.OnActivity, udprun.EndpointRunner.OnActivity).
func (s *Server) ServeEndpoint(ep *transport.Endpoint, _ time.Time) {
	for st, ok := ep.AcceptStream(); ok; st, ok = ep.AcceptStream() {
		req, err := ParseRequest(st.Data)
		var resp *Response
		if err != nil {
			resp = &Response{Status: 400, Headers: map[string]string{}, Body: []byte(err.Error())}
		} else {
			resp = s.Handler(st.Peer, req)
		}
		if resp == nil {
			resp = &Response{Status: 500, Headers: map[string]string{}}
		}
		_ = st.Conn.SendStream(st.ID, EncodeResponse(resp), true)
	}
}
