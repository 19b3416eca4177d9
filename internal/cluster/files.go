package cluster

import (
	"io"
	"os"
)

// openCreate creates a node's raw trace file. It is a variable so that
// a test can stand in files that fail.
var openCreate = func(name string) (io.WriteCloser, error) { return os.Create(name) }
