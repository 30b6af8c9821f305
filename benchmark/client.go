package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// lane is one keep-alive HTTP/1.1 connection driven by one goroutine.
// Requests are prebuilt byte strings (so a seed's request stream can be
// compared byte for byte) and responses are parsed by net/http's own
// reader; there is no connection pool, so "2 clients" is exactly two
// sockets.
type lane struct {
	addr string
	conn net.Conn
	br   *bufio.Reader
	body bytes.Buffer
	// respBytes counts response body bytes read, for
	// net.resp_bytes_per_query.
	respBytes int64
}

// requestTimeout bounds one request; exceeding it is a failed op.
const requestTimeout = 30 * time.Second

func dialLane(addr string) (*lane, error) {
	c, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return nil, err
	}
	return &lane{addr: addr, conn: c, br: bufio.NewReaderSize(c, 64<<10)}, nil
}

func (l *lane) close() { _ = l.conn.Close() } // nothing buffered to lose

// do sends one prebuilt request and reads the whole response. The
// returned body aliases the lane's buffer and is valid until the next
// call.
func (l *lane) do(req []byte) (status int, body []byte, err error) {
	if err := l.conn.SetDeadline(time.Now().Add(requestTimeout)); err != nil {
		return 0, nil, err
	}
	if _, err := l.conn.Write(req); err != nil {
		return 0, nil, err
	}
	resp, err := http.ReadResponse(l.br, nil)
	if err != nil {
		return 0, nil, err
	}
	l.body.Reset()
	_, err = l.body.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return resp.StatusCode, nil, err
	}
	l.respBytes += int64(l.body.Len())
	return resp.StatusCode, l.body.Bytes(), nil
}

// redial replaces a connection a failed request left in an unknown
// state, so one failure does not cascade into every later request.
func (l *lane) redial() error {
	l.close()
	n, err := dialLane(l.addr)
	if err != nil {
		return err
	}
	l.conn, l.br = n.conn, n.br
	return nil
}

func getRequest(path string) []byte {
	return []byte("GET " + path + " HTTP/1.1\r\nHost: scalerd\r\n\r\n")
}

func postRequest(path, contentType string, body []byte) []byte {
	return bodyRequest("POST", path, contentType, body)
}

func bodyRequest(method, path, contentType string, body []byte) []byte {
	var b bytes.Buffer
	b.Grow(len(body) + 160)
	b.WriteString(method + " " + path + " HTTP/1.1\r\nHost: scalerd\r\n")
	if contentType != "" {
		b.WriteString("Content-Type: " + contentType + "\r\n")
	}
	b.WriteString("Content-Length: " + strconv.Itoa(len(body)) + "\r\n\r\n")
	b.Write(body)
	return b.Bytes()
}

// Wire formats for an arrivals batch.

func binaryBody(ts []float64) []byte {
	b := make([]byte, 8*len(ts))
	for i, t := range ts {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(t))
	}
	return b
}

func ndjsonBody(ts []float64) []byte {
	b := make([]byte, 0, 20*len(ts))
	for _, t := range ts {
		b = strconv.AppendFloat(b, t, 'f', -1, 64)
		b = append(b, '\n')
	}
	return b
}

func jsonBody(ts []float64) []byte {
	b := append(make([]byte, 0, 20*len(ts)+20), `{"timestamps":[`...)
	for i, t := range ts {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, t, 'f', -1, 64)
	}
	return append(b, "]}"...)
}

func arrivalsPath(id string) string { return "/v1/workloads/" + id + "/arrivals" }

func ingestBinary(id string, ts []float64) []byte {
	return postRequest(arrivalsPath(id), "application/octet-stream", binaryBody(ts))
}

func ingestNDJSON(id string, ts []float64) []byte {
	return postRequest(arrivalsPath(id), "application/x-ndjson", ndjsonBody(ts))
}

// ftoa renders a float the way request URLs carry it: shortest form
// that parses back to the same value.
func ftoa(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }

// mustOK runs a set-up request that has no business failing.
func (l *lane) mustOK(req []byte, what string) ([]byte, error) {
	status, body, err := l.do(req)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", what, err)
	}
	if status != 200 {
		return nil, fmt.Errorf("%s: HTTP %d: %s", what, status, strings.TrimSpace(string(body)))
	}
	return body, nil
}

// scrape fetches /metrics and returns every sample keyed by its full
// series text (name plus label set, exactly as exposed).
func (l *lane) scrape() (map[string]float64, error) {
	body, err := l.mustOK(getRequest("/metrics"), "scraping /metrics")
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	if err := sc.Err(); err != nil && err != io.EOF {
		return nil, err
	}
	return out, nil
}

// sumSeries totals every series of one metric family across its label
// sets.
func sumSeries(m map[string]float64, name string) float64 {
	var s float64
	for k, v := range m {
		if k == name || strings.HasPrefix(k, name+"{") {
			s += v
		}
	}
	return s
}
