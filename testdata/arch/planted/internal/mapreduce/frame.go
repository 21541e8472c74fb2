package mapreduce

func encodeBlockFrame(b []byte) []byte { return b }
