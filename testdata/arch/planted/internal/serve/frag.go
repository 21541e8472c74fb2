package serve

type partition struct{ FragOff []int32 }

func fragLen(part *partition, i int) int32 { return part.FragOff[i+1] - part.FragOff[i] }
