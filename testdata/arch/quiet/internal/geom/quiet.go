package geom

import "fmt"

// Neither sort.Slice(xs, less), withHeat(p), rpc.Dial("tcp", addr) nor
// s.ContentMBR.IsEmpty() in a comment trips a rule, and no string does.
var notes = []string{"sort.Slice(xs, less)", "withHeat", "ptsOnce", "FragOff[i]", "trace.Start(w)", `import "encoding/gob"`}

func describe() string { return fmt.Sprint("extent(", notes, ")", "fs.files[name] = f") }
