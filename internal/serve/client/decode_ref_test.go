package client

import (
	"encoding/json"

	"meetpoly"
)

// This file keeps the probe-then-decode loop body the client ran on
// every stream line before it decoded cell lines in a single pass. It
// is the reference decodeStreamLine is compared against
// (TestStreamLineMatchesReference, FuzzStreamLineMatchesReference):
// every line must get the same classification and the same values.

// lineClass is what the client's read loop does with one stream line.
type lineClass string

const (
	classCell    lineClass = "cell"    // fold the result
	classTrailer lineClass = "trailer" // the stream's last line
	classRetried lineClass = "retried" // undecodable: end the attempt and retry
)

// decodedLine is one line's classification and the values decoded
// for it: the result of a cell, done and error of a trailer.
type decodedLine struct {
	class lineClass
	cr    meetpoly.SweepCellResult
	done  bool
	err   string
}

// referenceStreamLine is the reference loop body: probe every line for
// a cell, then decode the whole line again as a result.
func referenceStreamLine(line []byte) decodedLine {
	var probe struct {
		Cell  *json.RawMessage `json:"cell"`
		Done  bool             `json:"done"`
		Error string           `json:"error"`
	}
	if err := json.Unmarshal(line, &probe); err != nil {
		return decodedLine{class: classRetried}
	}
	if probe.Cell == nil {
		return decodedLine{class: classTrailer, done: probe.Done, err: probe.Error}
	}
	var cr meetpoly.SweepCellResult
	if err := json.Unmarshal(line, &cr); err != nil {
		return decodedLine{class: classRetried}
	}
	return decodedLine{class: classCell, cr: cr}
}

// singlePassStreamLine is decodeStreamLine in the reference's terms.
func singlePassStreamLine(line []byte) decodedLine {
	sl, isCell, err := decodeStreamLine(line)
	switch {
	case err != nil:
		return decodedLine{class: classRetried}
	case isCell:
		return decodedLine{class: classCell, cr: sl.SweepCellResult}
	default:
		return decodedLine{class: classTrailer, done: sl.Done, err: sl.Error}
	}
}
