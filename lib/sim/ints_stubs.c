/* Copies between OCaml int arrays as one memmove.

   An int array holds only immediates (tagged integers), never pointers,
   so storing into it needs no write barrier: the major GC neither marks
   through immediates nor tracks major-to-minor pointers for them.
   Array.blit cannot know that and, for a destination on the major heap,
   calls caml_modify once per element.  The callers check every bound;
   the stubs allocate nothing and raise nothing ([@@noalloc]). */

#include <string.h>
#include <caml/mlvalues.h>

value skipit_ints_blit(value src, value src_off, value dst, value dst_off, value len)
{
  memmove(Op_val(dst) + Long_val(dst_off), Op_val(src) + Long_val(src_off),
          Long_val(len) * sizeof(value));
  return Val_unit;
}
