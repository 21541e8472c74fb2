package spatialhadoop

import bin "encoding/binary"

func putLen(b []byte, n uint64) int { return bin.PutUvarint(b, n) }
