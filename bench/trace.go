package main

import (
	"bufio"
	"fmt"
	"os"
	"time"
)

// Benchmark-side spans: every layer is timed from outside, around the
// calls into its public functions. Spans stay in memory (one append
// into a pre-sized slice) and are written when the run ends.

var clockBase = time.Now()

// clock reads monotonic nanoseconds since process start.
func clock() int64 { return int64(time.Since(clockBase)) }

type spanKind uint8

const (
	spWindow spanKind = iota
	spFirstFrame
	spSecondFrame
	spVerify
	spOpEncode
	spOpDecode
	spReplyEncode
	spReplyDecode
	spEnginePost
	spEngineArrive
	spRecovAppend
	numSpanKinds
)

// spanNames are the exported span names; the codec's four stages share
// two names and differ in their "frame" argument.
var spanNames = [numSpanKinds]string{
	"window", "client.first_frame", "client.second_frame", "verify",
	"mpi.encode", "mpi.decode", "mpi.encode", "mpi.decode",
	"engine.post_batch", "engine.arrive_batch", "recov.append",
}

var spanFrames = [numSpanKinds]string{
	spOpEncode: "op", spOpDecode: "op", spReplyEncode: "reply", spReplyDecode: "reply",
}

// span is one timed interval. parent indexes the recorder's slice (-1
// for a root); window is the id the spans of one window share.
type span struct {
	start, end int64
	window     uint32
	parent     int32
	kind       spanKind
}

type recorder struct {
	spans []span
}

// add records one span and returns its index; a nil recorder records nothing.
func (r *recorder) add(kind spanKind, parent int32, window uint32, start, end int64) int32 {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{start: start, end: end, window: window, parent: parent, kind: kind})
	return int32(len(r.spans) - 1)
}

// durations returns every recorded duration of one kind.
func (r *recorder) durations(kind spanKind) []time.Duration {
	var out []time.Duration
	for i := range r.spans {
		if r.spans[i].kind == kind {
			out = append(out, time.Duration(r.spans[i].end-r.spans[i].start))
		}
	}
	return out
}

// writeChrome writes the spans as Chrome trace-event JSON (complete
// "X" events, microsecond timestamps), loadable in Perfetto. The
// end-to-end window spans sit on thread 1, the layer replays on thread 2.
func (r *recorder) writeChrome(path, workload string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(bw, `{"displayTimeUnit":"ns","traceEvents":[`+"\n")
	fmt.Fprintf(bw, `{"name":"process_name","ph":"M","pid":1,"args":{"name":"spco bench %s (loopback TCP)"}},`+"\n", workload)
	fmt.Fprintf(bw, `{"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"end-to-end windows"}},`+"\n")
	fmt.Fprintf(bw, `{"name":"thread_name","ph":"M","pid":1,"tid":2,"args":{"name":"layer replay"}}`)
	for i := range r.spans {
		s := &r.spans[i]
		tid := 1
		if s.kind >= spOpEncode {
			tid = 2
		}
		fmt.Fprintf(bw, ",\n"+`{"name":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"id":%d,"parent":%d,"window":%d`,
			spanNames[s.kind], tid, float64(s.start)/1e3, float64(s.end-s.start)/1e3, i, s.parent, s.window)
		if fr := spanFrames[s.kind]; fr != "" {
			fmt.Fprintf(bw, `,"frame":%q`, fr)
		}
		bw.WriteString("}}")
	}
	bw.WriteString("\n]}\n")
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
