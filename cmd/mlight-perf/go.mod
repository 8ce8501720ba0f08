module mlight/cmd/mlight-perf

go 1.22

require mlight v0.0.0

replace mlight => ../..
