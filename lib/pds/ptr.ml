let mark_bit = 1
let tag_bit = 2
let addr_of p = p land lnot 3
let is_marked p = p land mark_bit <> 0
let is_tagged p = p land tag_bit <> 0
let with_mark p = p lor mark_bit
let with_tag p = p lor tag_bit
let null = 0
let is_null p = addr_of p = 0
