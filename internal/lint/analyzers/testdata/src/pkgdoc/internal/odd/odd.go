// odd helpers live here. want `package doc comment does not begin "Package odd "`
package odd
