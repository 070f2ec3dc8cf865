type wb_kind = Wb_clean | Wb_flush
