package serve

import (
	"io"
	"runtime/trace"
)

func startTrace(w io.Writer) error { return trace.Start(w) }
