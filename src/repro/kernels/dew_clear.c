/* Empty a DEW tree's flat storage for reuse (repro.core.tree), zeroing only
 * the nodes a walk touched.
 *
 * The fields are laid out as in dew.c: int64 tags, MRA tags and MRE tags,
 * int32 wave pointers, MRE wave pointers and FIFO pointers, A tag-list
 * entries per node.  Every write of dew_walk lands on a node whose MRA slot
 * it has just set, or on the wave pointer of that node's parent entry, and
 * no MRA slot is ever cleared: the nodes with a non-zero MRA are exactly
 * the nodes that can hold anything but zeros.
 */
#include <stdint.h>
#include <string.h>

void dew_clear(int64_t nodes, int64_t associativity, int64_t *tags,
               int32_t *waves, int64_t *mra, int64_t *mre_tag,
               int32_t *mre_wave, int32_t *fifo_ptr)
{
    for (int64_t node = 0; node < nodes; node++) {
        if (!mra[node])
            continue;
        memset(tags + node * associativity, 0, associativity * sizeof *tags);
        memset(waves + node * associativity, 0, associativity * sizeof *waves);
        mra[node] = mre_tag[node] = 0;
        mre_wave[node] = fifo_ptr[node] = 0;
    }
}
