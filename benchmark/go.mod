module spatialhadoop/benchmark

go 1.22

require spatialhadoop v0.0.0

replace spatialhadoop => ../
