module robustscaler/benchmark

go 1.24

require robustscaler v0.0.0

replace robustscaler => ../
