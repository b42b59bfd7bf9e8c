package fleet

import (
	"context"
	"net/http"
	"strconv"
	"time"

	"hbm2ecc/internal/httpx"
)

// Reporter is where a node agent's reports go: the in-process
// coordinator directly (bench and tests) or a Client speaking the wire
// protocol to a remote fleetd.
type Reporter interface {
	Report(ctx context.Context, req ReportRequest) (ReportResponse, error)
}

// The Coordinator itself satisfies Reporter for in-process ingest.
type inprocReporter struct{ c *Coordinator }

func (r inprocReporter) Report(_ context.Context, req ReportRequest) (ReportResponse, error) {
	resp, err := r.c.Report(req)
	if err != nil {
		// A refused report stays refused: the same permanent 422 the
		// HTTP surface answers, so an outbox drops it instead of retrying.
		return resp, &httpx.StatusError{Code: http.StatusUnprocessableEntity, Body: err.Error()}
	}
	return resp, nil
}

// Loopback wraps the coordinator as an in-process Reporter.
func (c *Coordinator) Loopback() Reporter { return inprocReporter{c} }

// Client is the agent-side wire client: a hardened httpx JSON client
// plus response validation (agents refuse malformed coordinator
// responses the same way the coordinator refuses malformed reports).
type Client struct {
	base string
	http *httpx.Client
}

// NewClient builds a client for the coordinator at base
// ("http://host:port").
func NewClient(base string, timeout time.Duration) *Client {
	c := httpx.NewClient(timeout)
	c.MaxBody = MaxFrame
	return &Client{base: base, http: c}
}

// WithTransport swaps the underlying HTTP transport — chaos tests use
// it to splice a faulty netchaos transport under the wire client.
// Returns the client for chaining.
func (c *Client) WithTransport(rt http.RoundTripper) *Client {
	c.http.HTTP.Transport = rt
	return c
}

// Report POSTs one report frame and decodes the response strictly.
func (c *Client) Report(ctx context.Context, req ReportRequest) (ReportResponse, error) {
	body, err := c.http.Post(ctx, c.base+"/v1/report", &req)
	if err != nil {
		return ReportResponse{}, err
	}
	return DecodeReportResponse(body)
}

// Fleet GETs the ranked fleet snapshot.
func (c *Client) Fleet(ctx context.Context, top int) (FleetResponse, error) {
	var resp FleetResponse
	url := c.base + "/v1/fleet"
	if top > 0 {
		url += "?top=" + strconv.Itoa(top)
	}
	if err := c.http.GetJSON(ctx, url, &resp); err != nil {
		return FleetResponse{}, err
	}
	return resp, nil
}
