dcws_module(html
  token.cc
  links.cc
  rewriter.cc
)
