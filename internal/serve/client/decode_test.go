package client

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"meetpoly"
	"meetpoly/internal/campaign"
	"meetpoly/internal/serve"
)

// syntheticLines are cell lines the client test campaign never produces: a
// failing cell, a canceled one, labels, a shuffled random graph, and
// strings the encoder escapes.
func syntheticLines(t testing.TB) [][]byte {
	var out [][]byte
	for _, cr := range []meetpoly.SweepCellResult{
		{
			Cell: meetpoly.SweepCell{
				Index: 7, ID: "rendezvous/random-5-shuf/s1/l0", Seed: campaign.CellSeed("ü<&>", 7), Kind: "rendezvous",
				Graph:  meetpoly.GraphSpec{Kind: "random", N: 5, P: 0.3, Shuffle: true},
				Starts: []int{0, 3}, Labels: []uint64{1, 1 << 63}, Adversary: "random:9", Budget: 200000,
			},
			Outcome:  meetpoly.SweepOutcome{N: 5, M: 7, Met: true, Consistent: true, Cost: 412, Steps: 830, MaxPerAgent: 230, Committed: 413},
			Failures: []meetpoly.SweepOracleFailure{{Oracle: "pi-bound", Err: "cost 412 > Π = 7 <tag> & more"}},
		},
		{
			Cell:    meetpoly.SweepCell{Index: 11, ID: "esst/ring-4", Seed: "s#11", Kind: "esst", Graph: meetpoly.GraphSpec{Kind: "ring", N: 4}, Starts: []int{2}},
			Outcome: meetpoly.SweepOutcome{N: 4, M: 4, Canceled: true, Err: "context canceled"},
		},
		{
			Cell:    meetpoly.SweepCell{Index: 0, Kind: "certify", Graph: meetpoly.GraphSpec{Kind: "grid", Rows: 2, Cols: 3}, Moves: 60},
			Outcome: meetpoly.SweepOutcome{Detail: "\x00\t\"quoted\"", Invalid: true, EndedEarly: true, Exhausted: true},
		},
	} {
		line, err := json.Marshal(cr)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, line)
	}
	return out
}

// serverLines are every line of a real /v1/sweep stream of the client
// test campaign, its trailer included.
func serverLines(t *testing.T) [][]byte {
	t.Helper()
	srv := serve.New(serve.Config{Engine: newClientEngine()})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	body, err := json.Marshal(clientSpec())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out [][]byte
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		out = append(out, bytes.Clone(sc.Bytes()))
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// streamLineRows are the shapes a line can take, each with the class
// the reference gives it.
var streamLineRows = []struct {
	name, line string
	want       lineClass
}{
	{"trailer", `{"done":true,"cells":48,"failures":0,"canceled":0}`, classTrailer},
	{"trailer with error", `{"done":false,"cells":0,"failures":0,"canceled":0,"error":"serve: boom"}`, classTrailer},
	{"trailer with wrong-typed error", `{"done":false,"error":7}`, classRetried},
	{"trailer with wrong-typed done", `{"done":"yes"}`, classRetried},
	{"null cell", `{"cell":null,"done":true,"cells":3}`, classTrailer},
	{"null cell with error", `{"cell":null,"error":"x"}`, classTrailer},
	{"empty object", `{}`, classTrailer},
	{"cell", `{"cell":{"index":3,"id":"a","seed":"s#3","kind":"esst","graph":{"kind":"path","n":3},"starts":[0]},"outcome":{"n":3,"m":2,"met":true,"consistent":true,"cost":4,"max_per_agent":4,"committed":4}}`, classCell},
	{"cell with done", `{"cell":{"index":3},"outcome":{},"done":true}`, classCell},
	{"cell with error", `{"cell":{"index":3},"outcome":{},"error":"ignored"}`, classCell},
	{"cell with wrong-typed done", `{"cell":{"index":3},"outcome":{},"done":"yes"}`, classRetried},
	{"cell with wrong-typed error", `{"cell":{"index":3},"outcome":{},"error":{}}`, classRetried},
	{"cell with wrong-typed outcome", `{"cell":{"index":3},"outcome":[1]}`, classRetried},
	{"cell with wrong-typed outcome field", `{"cell":{"index":3},"outcome":{"met":"yes"}}`, classRetried},
	{"cell with wrong-typed index", `{"cell":{"index":"3"},"outcome":{}}`, classRetried},
	{"cell with wrong-typed failures", `{"cell":{"index":3},"outcome":{},"failures":{}}`, classRetried},
	{"cell that is a number", `{"cell":5}`, classRetried},
	{"cell that is a string", `{"cell":"x","outcome":{}}`, classRetried},
	{"repeated cell objects merge", `{"cell":{"index":3},"cell":{"id":"b"}}`, classCell},
	{"repeated cell, later a number", `{"cell":{"index":3},"cell":5}`, classRetried},
	{"cell after outcome", `{"outcome":{"met":true},"cell":{"index":9}}`, classCell},
	{"capitalised cell key", `{"Cell":{"index":4},"OUTCOME":{"cost":2}}`, classCell},
	{"escaped cell key", `{"\u0063ell":{"index":5}}`, classCell},
	{"leading space", ` {"cell":{"index":3},"outcome":{}}`, classCell},
	{"leading tab on a trailer", "\t{\"done\":true}", classTrailer},
	{"trailing space", `{"cell":{"index":3},"outcome":{}} `, classCell},
	{"trailing garbage", `{"cell":{"index":3},"outcome":{}}x`, classRetried},
	{"two objects", `{"cell":{"index":3}}{"done":true}`, classRetried},
	{"truncated cell", `{"cell":{"index":3,"id":"a`, classRetried},
	{"truncated trailer", `{"done":tr`, classRetried},
	{"empty line", ``, classRetried},
	{"array", `[{"cell":{"index":3}}]`, classRetried},
	{"string", `"cell"`, classRetried},
	{"number", `42`, classRetried},
	{"bool", `true`, classRetried},
	{"null", `null`, classTrailer},
	{"invalid UTF-8", "{\"cell\":{\"id\":\"\xff\"},\"outcome\":{}}", classCell},
}

// requireSameDecode fails when the single pass and the reference part
// on line, in class or in a decoded value.
func requireSameDecode(t *testing.T, name string, line []byte) decodedLine {
	t.Helper()
	got, want := singlePassStreamLine(line), referenceStreamLine(line)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: line %q\n single pass %+v\n reference   %+v", name, line, got, want)
	}
	return got
}

// TestStreamLineMatchesReference: the client's single-pass line decoder
// classifies every line (cell, trailer or retried) as the
// probe-then-decode reference does, and decodes the same values: every
// line of a real stream, synthetic cell lines, each row of
// streamLineRows and every prefix of a cell line and a trailer. The
// one line shape where the two part is pinned on its own.
func TestStreamLineMatchesReference(t *testing.T) {
	total, err := meetpoly.CountSweep(clientSpec())
	if err != nil {
		t.Fatal(err)
	}
	lines := serverLines(t)
	if len(lines) != total+1 {
		t.Fatalf("stream has %d lines, want %d cells and a trailer", len(lines), total)
	}
	lines = append(lines, syntheticLines(t)...)
	for i, line := range lines {
		d := requireSameDecode(t, "server line", line)
		switch {
		case i == total && (d.class != classTrailer || !d.done):
			t.Errorf("stream trailer decoded as %+v", d)
		case i != total && d.class != classCell:
			t.Errorf("line %d decoded as %s, want a cell", i, d.class)
		}
	}
	for _, row := range streamLineRows {
		if d := requireSameDecode(t, row.name, []byte(row.line)); d.class != row.want {
			t.Errorf("%s: decoded as %s, want %s", row.name, d.class, row.want)
		}
	}
	for _, line := range [][]byte{lines[0], lines[total], lines[total+1]} {
		for n := range len(line) {
			if d := requireSameDecode(t, "prefix", line[:n]); d.class != classRetried {
				t.Errorf("prefix %q decoded as %s, want retried", line[:n], d.class)
			}
		}
	}

	// The one shape where the two part: a cell object followed by the
	// key again with null. The probe's *json.RawMessage ends nil, so the
	// reference sees a trailer. The single pass decodes into a struct,
	// which null leaves as it was, so it reads the line as the reference
	// reads it without its null cells: a cell, or a retry when the cell
	// does not decode. No encoder of a cell result repeats a key.
	for _, row := range []struct {
		line string
		want decodedLine
	}{
		{
			`{"cell":{"index":3,"id":"x"},"outcome":{"met":true},"cell":null}`,
			decodedLine{class: classCell, cr: meetpoly.SweepCellResult{Cell: meetpoly.SweepCell{Index: 3, ID: "x"}, Outcome: meetpoly.SweepOutcome{Met: true}}},
		},
		{`{"cell":{"index":3,"id":true},"CELL":null}`, decodedLine{class: classRetried}},
	} {
		line := []byte(row.line)
		if ref := referenceStreamLine(line); ref.class != classTrailer {
			t.Errorf("reference decoded %s as %+v, want a trailer", line, ref)
		}
		if got := singlePassStreamLine(line); !reflect.DeepEqual(got, row.want) {
			t.Errorf("single pass decoded %s as %+v, want %+v", line, got, row.want)
		}
		stripped, lastNull := withoutNullCells(line)
		if !lastNull {
			t.Errorf("withoutNullCells(%s) misses the repeated null cell", line)
		}
		if got := referenceStreamLine(stripped); !reflect.DeepEqual(got, row.want) {
			t.Errorf("reference decoded %s as %+v, want %+v", stripped, got, row.want)
		}
	}
}

// withoutNullCells rebuilds line, one JSON object and nothing after it,
// without the members whose key encoding/json matches to "cell"
// (case-insensitively, escapes undone) and whose value is null. It
// reports whether the last such member was null; it returns line as it
// is, and false, when line is not one object.
func withoutNullCells(line []byte) ([]byte, bool) {
	dec := json.NewDecoder(bytes.NewReader(line))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return line, false
	}
	out := []byte{'{'}
	lastNull := false
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return line, false
		}
		key, _ := tok.(string)
		var v json.RawMessage
		if err := dec.Decode(&v); err != nil {
			return line, false
		}
		if strings.EqualFold(key, "cell") {
			if lastNull = string(v) == "null"; lastNull {
				continue
			}
		}
		if len(out) > 1 {
			out = append(out, ',')
		}
		k, _ := json.Marshal(key)
		out = append(append(append(out, k...), ':'), v...)
	}
	if tok, err := dec.Token(); err != nil || tok != json.Delim('}') {
		return line, false
	}
	if _, err := dec.Token(); err != io.EOF {
		return line, false
	}
	return append(out, '}'), lastNull
}

// FuzzStreamLineMatchesReference: any line gets the same class and
// values from the single pass as from the reference, except a line
// that opens with a cell object and whose last "cell" member is null
// (the pinned rows in TestStreamLineMatchesReference): the single pass
// must read that line as the reference reads it without its null
// cells.
func FuzzStreamLineMatchesReference(f *testing.F) {
	for _, line := range syntheticLines(f) {
		f.Add(line)
	}
	for _, row := range streamLineRows {
		f.Add([]byte(row.line))
	}
	f.Add([]byte(`{"cell":{"index":3,"id":"x"},"outcome":{"met":true},"cell":null}`))
	f.Add([]byte(`{"cell":{"index":3,"id":true},"CELL":null}`))
	f.Fuzz(func(t *testing.T, line []byte) {
		got, want := singlePassStreamLine(line), referenceStreamLine(line)
		if reflect.DeepEqual(got, want) {
			return
		}
		stripped, lastNull := withoutNullCells(line)
		if !bytes.HasPrefix(line, cellLinePrefix) || !lastNull {
			t.Fatalf("line %q\n single pass %+v\n reference   %+v", line, got, want)
		}
		if want := referenceStreamLine(stripped); !reflect.DeepEqual(got, want) {
			t.Fatalf("line %q, a cell object repeated as null\n single pass %+v\n reference without null cells (%q) %+v", line, got, stripped, want)
		}
	})
}
