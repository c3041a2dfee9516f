dcws_module(net
  inproc.cc
  socket_util.cc
  station.cc
  tcp.cc
)
